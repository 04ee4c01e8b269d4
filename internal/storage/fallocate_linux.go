package storage

import (
	"os"
	"syscall"
)

// reserveFile allocates n bytes of f from off on, extending the file's size
// over them (fallocate mode 0); the new bytes read as zeros.
func reserveFile(f *os.File, off, n int64) error {
	return syscall.Fallocate(int(f.Fd()), 0, off, n)
}
