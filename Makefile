# Developer entry points. `make ci` is the tier-1 gate recorded in
# ROADMAP.md: gofmt, vet, build (the nested seqavfbench module too), and
# the full test suite under the race detector must all pass before a
# change lands.

GO ?= go

.PHONY: all build bench-build fmt vet test race bench fuzz-smoke cover run-seqavfd run-fleet-smoke ci

all: build

build:
	$(GO) build ./...

# The nested seqavfbench module imports the root packages through
# `replace seqavf => ../`, so the root `go build ./...` never reaches it:
# vet, build and test it on its own so an API change cannot break the
# benchmark or its replay's byte check while the rest of the gate stays
# green.
bench-build:
	cd seqavfbench && $(GO) vet ./... && $(GO) build -o /dev/null ./... && $(GO) test ./...

# Fails listing every root-module file gofmt would change. Files are
# passed per package directory: gofmt recurses into directories, which
# would also reach the nested seqavfbench module.
fmt:
	@dirs=$$($(GO) list -f '{{.Dir}}' ./...) || exit 1; \
	out=$$(for d in $$dirs; do gofmt -l "$$d"/*.go || exit 1; done) || exit 1; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# -shuffle=on randomizes test order so inter-test state dependencies
# surface in CI instead of in the field.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Short coverage-guided runs of the native fuzz targets (Go allows one
# -fuzz target per invocation, hence one line each).
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzParsePavfTable -fuzztime=10s ./internal/pavfio/
	$(GO) test -run=^$$ -fuzz=FuzzParseIntervalTable -fuzztime=10s ./internal/pavfio/
	$(GO) test -run=^$$ -fuzz=FuzzParseMatchesOracle -fuzztime=10s ./internal/pavfio/
	$(GO) test -run=^$$ -fuzz=FuzzSetTable -fuzztime=10s ./internal/pavf/
	$(GO) test -run=^$$ -fuzz=FuzzCompilePlan -fuzztime=10s ./internal/sweep/
	$(GO) test -run=^$$ -fuzz=FuzzEnvMatrix -fuzztime=10s ./internal/sweep/
	$(GO) test -run=^$$ -fuzz=FuzzReportJSON -fuzztime=10s ./internal/sweep/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeArtifact -fuzztime=10s ./internal/artifact/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeFUBState -fuzztime=10s ./internal/artifact/
	$(GO) test -run=^$$ -fuzz=FuzzParseReplicaList -fuzztime=10s ./internal/fleet/
	$(GO) test -run=^$$ -fuzz=FuzzMergeExposition -fuzztime=10s ./internal/fleet/
	$(GO) test -run=^$$ -fuzz=FuzzParseHardenRequest -fuzztime=10s ./internal/harden/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeRequest -fuzztime=10s ./internal/server/
	$(GO) test -run=^$$ -fuzz=FuzzParseNetlist -fuzztime=10s ./internal/netlist/

# Coverage floors on the numerical core (solver, sweep engine, pAVF
# closed forms) and the fleet gateway; see scripts/cover.sh for the
# gated packages and thresholds.
cover:
	GO=$(GO) ./scripts/cover.sh

# End-to-end smoke of the sweep service: generate a design, start
# seqavfd, probe /healthz, run one sweep, then SIGTERM it.
run-seqavfd: build
	./scripts/seqavfd_smoke.sh

# End-to-end smoke of the sweep fleet: 3 replicas with cross-wired
# artifact peers behind seqavf-gateway, a routed sweep, the merged
# /metrics, and a rolling restart that warm-starts over the remote
# artifact tier.
run-fleet-smoke: build
	./scripts/fleet_smoke.sh

ci: fmt vet build bench-build race cover fuzz-smoke
