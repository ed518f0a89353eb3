package grid

import (
	"bytes"
	"io"
	"testing"
)

// The two byte-eating surfaces of the grid engine — a checkpoint point
// file read back on resume, and a line of the worker protocol read off a
// pipe — must return errors, never panic, on arbitrary input. Each
// target runs its checked-in corpus under testdata/fuzz plus the seeds
// below; `go test -fuzz` explores further.

// FuzzVerifyPoint feeds arbitrary bytes to the checkpoint envelope
// decoder: it returns a point or an error, exactly one of the two, and
// a point it accepts converts to the explore form.
func FuzzVerifyPoint(f *testing.F) {
	f.Add([]byte(`{"crc32":"3a1c3b5d","point":{"vth":1,"t":2,"clean_accuracy":0.5,"learnable":true}}`))
	f.Add([]byte(`{"crc32":"","point":null}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		wp, err := verifyPoint(raw)
		if (wp == nil) == (err == nil) {
			t.Fatalf("verifyPoint returned point %v and error %v", wp, err)
		}
		if wp != nil {
			wp.Point()
		}
	})
}

// FuzzRecv feeds arbitrary bytes to the line protocol's decoder as a
// peer's pipe would deliver them: recv returns messages until it returns
// an error, and never panics.
func FuzzRecv(f *testing.F) {
	f.Add([]byte(`{"type":"point_done","index":3,"point":{"vth":1,"t":2,"clean_accuracy":0.5,"learnable":true}}` + "\n"))
	f.Add([]byte(`{"type":"fatal","err":"boom"}` + "\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		c := newConn(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(raw), io.Discard})
		for {
			if _, err := c.recv(); err != nil {
				return
			}
		}
	})
}
