//go:build !linux

package slotstore

import (
	"errors"
	"os"
)

const supported = false

var errUnsupported = errors.New("slotstore: mmap persistence is only supported on linux")

func mmapFile(*os.File, int, int) ([]byte, error) { return nil, errUnsupported }

func munmapFile([]byte) error { return nil }

func msyncRange([]byte, int, int) error { return errUnsupported }
