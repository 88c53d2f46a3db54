//go:build !linux

package watcher

import (
	"errors"
	"runtime"
)

// closeNotifier is the kernel close notification, which this package has
// only for Linux; elsewhere the size-stable poll is the close signal.
type closeNotifier struct {
	names chan []string
	err   error
}

func newCloseNotifier(dir string, stop <-chan struct{}) (*closeNotifier, error) {
	return nil, errors.New("not implemented on " + runtime.GOOS)
}

func (n *closeNotifier) close() {}
