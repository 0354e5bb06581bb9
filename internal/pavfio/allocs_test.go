package pavfio

import (
	"fmt"
	"strings"
	"testing"
)

// genRecords writes n distinct records, cycling R, W and S lines, each
// line preceded by a comment every 16 records.
func genRecords(b *strings.Builder, n int) {
	for i := 0; i < n; i++ {
		if i%16 == 0 {
			fmt.Fprintf(b, "# block %d\n", i/16)
		}
		v := float64(i%1000) / 1000
		switch i % 3 {
		case 0:
			fmt.Fprintf(b, "R Fub%d.rd%d %.6f\n", i%7, i, v)
		case 1:
			fmt.Fprintf(b, "W Fub%d.wr%d\t%.6f\r\n", i%7, i, v)
		default:
			fmt.Fprintf(b, "S Struct%d %.6f\n", i, v)
		}
	}
}

// TestParseAllocs: ParseText allocates per table, never per record —
// fields alias the text and the maps are sized before the first insert —
// so a table ten times longer costs the same number of allocations.
// ParseIntervalsText allocates per window, so at a fixed window count
// its allocations do not grow with the records per window either.
//
// Record counts keep each map between 9 and 896 entries. The Go runtime
// lays out a map of up to 8 entries as one small group and splits one
// of more than 896 across tables, one allocation each; between the two,
// a map's allocations do not depend on its size.
func TestParseAllocs(t *testing.T) {
	parseAllocs := func(records int) float64 {
		var b strings.Builder
		genRecords(&b, records)
		text := b.String()
		return testing.AllocsPerRun(20, func() {
			if _, err := ParseText("t", text); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := parseAllocs(200), parseAllocs(2000); small != large {
		t.Errorf("ParseText: %v allocs at 200 records, %v at 2000; want equal", small, large)
	}

	intervalAllocs := func(perWindow int) float64 {
		var b strings.Builder
		b.WriteString("# workload w\n")
		for w := 0; w < 32; w++ {
			fmt.Fprintf(&b, "# window %d %d %d\n", w, w*1000, (w+1)*1000)
			genRecords(&b, perWindow)
		}
		text := b.String()
		return testing.AllocsPerRun(20, func() {
			if _, err := ParseIntervalsText("t", text); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := intervalAllocs(40), intervalAllocs(400); small != large {
		t.Errorf("ParseIntervalsText: %v allocs at 32x40 records, %v at 32x400; want equal", small, large)
	}
}
