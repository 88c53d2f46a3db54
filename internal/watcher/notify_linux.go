package watcher

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"syscall"
)

// closeNotifier delivers the base names of files the kernel reports
// complete in one directory: closed by a writer, or renamed in.
type closeNotifier struct {
	f *os.File
	// names carries one slice per read, in kernel order; it is closed
	// when the reader exits, after err is set to the read error that
	// ended it.
	names chan []string
	err   error
}

// newCloseNotifier opens one inotify instance on dir and starts its
// reader, which exits when close is called, stop is closed while it waits
// to hand names over, or a read fails.
func newCloseNotifier(dir string, stop <-chan struct{}) (*closeNotifier, error) {
	// Non-blocking, so that os.NewFile hands the descriptor to the runtime
	// poller: the reader then parks in Read and Close wakes it (a raw
	// blocking read is not woken by closing its descriptor).
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("inotify_init1: %w", err)
	}
	if _, err := syscall.InotifyAddWatch(fd, dir, syscall.IN_CLOSE_WRITE|syscall.IN_MOVED_TO); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("inotify_add_watch %s: %w", dir, err)
	}
	n := &closeNotifier{f: os.NewFile(uintptr(fd), "inotify:"+dir), names: make(chan []string)}
	go n.read(stop)
	return n, nil
}

// close releases the inotify descriptor and waits for the reader to exit.
func (n *closeNotifier) close() {
	n.f.Close()
	for range n.names {
	}
}

func (n *closeNotifier) read(stop <-chan struct{}) {
	defer close(n.names)
	// Room for some 240 events of the longest name; an event is never
	// split across reads.
	buf := make([]byte, 64<<10)
	for {
		k, err := n.f.Read(buf)
		if err != nil {
			n.err = err // closed by close, or a failure that leaves the poll alone
			return
		}
		names := parseCloseNames(buf[:k])
		if len(names) == 0 {
			continue
		}
		select {
		case n.names <- names:
		case <-stop:
			return
		}
	}
}

// parseCloseNames extracts the names from a buffer of inotify events.
// Events without a name are dropped: a queue overflow or a removed watch
// has none, and what they lose falls to the poll.
func parseCloseNames(buf []byte) []string {
	var names []string
	for len(buf) >= syscall.SizeofInotifyEvent {
		// struct inotify_event { int wd; uint32 mask, cookie, len; char name[len]; }
		mask := binary.NativeEndian.Uint32(buf[4:8])
		nameLen := int(binary.NativeEndian.Uint32(buf[12:16]))
		end := syscall.SizeofInotifyEvent + nameLen
		if end > len(buf) {
			break
		}
		name := buf[syscall.SizeofInotifyEvent:end]
		buf = buf[end:]
		if mask&syscall.IN_ISDIR != 0 || nameLen == 0 {
			continue
		}
		if i := bytes.IndexByte(name, 0); i >= 0 {
			name = name[:i] // NUL-padded to an alignment boundary
		}
		names = append(names, string(name))
	}
	return names
}
