package core

import (
	"bufio"
	"fmt"
	"os"
)

// product is one artifact file being written. The portal serves record
// directories as they are, and a record is re-analysed in place (a compute
// retry, a re-interrogation of a past experiment), so the bytes go to
// path+".tmp" and replace path by rename only once they are complete: a
// reader sees the previous artifact or the new one, never a torn one, and a
// failed analysis leaves the previous one alone. Nothing is fsynced — an
// artifact is re-derivable from the landed file, which is what is durable.
type product struct {
	*os.File
	path string
	done bool
}

func createProduct(path string) (*product, error) {
	f, err := os.OpenFile(path+".tmp", os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &product{File: f, path: path}, nil
}

// commit closes the temporary file and renames it into place.
func (p *product) commit() error {
	if err := p.Close(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := os.Rename(p.Name(), p.path); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	p.done = true
	return nil
}

// discard removes the temporary file unless commit succeeded; deferred
// right after createProduct it covers every error path.
func (p *product) discard() {
	if !p.done {
		p.Close() // a second Close after a failed commit is harmless
		os.Remove(p.Name())
	}
}

// writeProduct writes one artifact through a buffered writer and renames
// it into place.
func writeProduct(path string, write func(w *bufio.Writer) error) error {
	p, err := createProduct(path)
	if err != nil {
		return err
	}
	defer p.discard()
	w := bufio.NewWriter(p)
	if err := write(w); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return p.commit()
}
