//go:build !linux

package storage

import (
	"errors"
	"os"
)

// reserveFile is unsupported off Linux: the log grows one frame at a time.
func reserveFile(f *os.File, off, n int64) error {
	return errors.ErrUnsupported
}
