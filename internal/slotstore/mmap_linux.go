//go:build linux

package slotstore

import (
	"os"
	"syscall"
	"unsafe"
)

const supported = true

func mmapFile(f *os.File, off, size int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), int64(off), size,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
}

func munmapFile(m []byte) error {
	if m == nil {
		return nil
	}
	return syscall.Munmap(m)
}

// msyncRange flushes the page-aligned span covering m[off:off+n] to the
// backing file with MS_SYNC (synchronous writeback of the dirty pages).
func msyncRange(m []byte, off, n int) error {
	if n <= 0 {
		return nil
	}
	lo, hi := pageSpan(off, n, len(m), os.Getpagesize())
	_, _, errno := syscall.Syscall(syscall.SYS_MSYNC,
		uintptr(unsafe.Pointer(&m[lo])), uintptr(hi-lo), uintptr(syscall.MS_SYNC))
	if errno != 0 {
		return errno
	}
	return nil
}
