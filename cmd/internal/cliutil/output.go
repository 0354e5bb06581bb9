package cliutil

import (
	"bufio"
	"io"
	"os"
)

// WriteOutput creates path (stdout when path is empty), hands write a
// buffered writer over it, flushes, and closes the file. It returns the
// first of the write, flush and Close errors, so a full disk fails the
// run instead of leaving a truncated report behind a zero exit status.
// The buffered writer keeps its first error and the flush returns it,
// so write may ignore the errors of its individual writes.
func WriteOutput(path string, write func(w io.Writer) error) (err error) {
	f := os.Stdout
	if path != "" {
		if f, err = os.Create(path); err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		return err
	}
	return bw.Flush()
}
