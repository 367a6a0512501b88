//go:build !linux

package membackend

import (
	"errors"
	"fmt"
)

// ErrMmapUnsupported is returned by the mmap backend on platforms where
// the durable register file is not implemented.
var ErrMmapUnsupported = errors.New("membackend: mmap backend requires linux")

func init() {
	Register("mmap", func(arg string, _ []Instance, _ int) ([]Backend, []int64, error) {
		return nil, nil, fmt.Errorf("%w (spec %q)", ErrMmapUnsupported, "mmap:"+arg)
	})
}
