// Package modelio serialises trained models to a small self-describing
// binary format so expensive sweeps can checkpoint their networks, the
// CLI can hand models between subcommands, and the robust (Vth, T)
// "sweet-spot" models the paper ships can be reproduced and stored.
//
// Format (all integers little-endian):
//
//	magic   [8]byte  "SNNSEC01"
//	nmeta   uint32   — metadata key/value pairs (UTF-8, length-prefixed)
//	nparams uint32
//	per parameter:
//	  name  string   (length-prefixed)
//	  ndims uint32, dims []uint32
//	  data  []float64
package modelio

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"

	"snnsec/internal/nn"
	"snnsec/internal/tensor"
)

var magic = [8]byte{'S', 'N', 'N', 'S', 'E', 'C', '0', '1'}

// limits guard against corrupt files allocating absurd amounts.
const (
	maxStringLen = 1 << 16
	maxDims      = 16
	maxElems     = 1 << 28
)

// SavedParam is one serialised tensor.
type SavedParam struct {
	Name string
	Data *tensor.Tensor
}

// Model is the deserialised form of a checkpoint.
type Model struct {
	// Meta carries free-form metadata: architecture name, Vth, T,
	// encoder, surrogate, training configuration.
	Meta   map[string]string
	Params []SavedParam
}

// Save writes metadata and parameters.
func Save(w io.Writer, meta map[string]string, params []*nn.Param) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(meta))); err != nil {
		return err
	}
	for _, k := range slices.Sorted(maps.Keys(meta)) { // deterministic order
		if err := writeString(bw, k); err != nil {
			return err
		}
		if err := writeString(bw, meta[k]); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if err := writeString(bw, p.Name); err != nil {
			return err
		}
		shape := p.Data.Shape()
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(shape))); err != nil {
			return err
		}
		for _, d := range shape {
			if err := binary.Write(bw, binary.LittleEndian, uint32(d)); err != nil {
				return err
			}
		}
		for _, v := range p.Data.Data() {
			if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(v)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load reads a checkpoint.
func Load(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("modelio: short magic: %w", err)
	}
	if got != magic {
		return nil, fmt.Errorf("modelio: bad magic %q", got[:])
	}
	var nmeta uint32
	if err := binary.Read(br, binary.LittleEndian, &nmeta); err != nil {
		return nil, fmt.Errorf("modelio: meta count: %w", err)
	}
	if nmeta > maxStringLen {
		return nil, fmt.Errorf("modelio: implausible meta count %d", nmeta)
	}
	m := &Model{Meta: make(map[string]string, nmeta)}
	for i := uint32(0); i < nmeta; i++ {
		k, err := readString(br)
		if err != nil {
			return nil, err
		}
		v, err := readString(br)
		if err != nil {
			return nil, err
		}
		m.Meta[k] = v
	}
	var nparams uint32
	if err := binary.Read(br, binary.LittleEndian, &nparams); err != nil {
		return nil, fmt.Errorf("modelio: param count: %w", err)
	}
	if nparams > maxStringLen {
		return nil, fmt.Errorf("modelio: implausible param count %d", nparams)
	}
	for i := uint32(0); i < nparams; i++ {
		name, err := readString(br)
		if err != nil {
			return nil, err
		}
		var ndims uint32
		if err := binary.Read(br, binary.LittleEndian, &ndims); err != nil {
			return nil, fmt.Errorf("modelio: %s dims: %w", name, err)
		}
		if ndims > maxDims {
			return nil, fmt.Errorf("modelio: %s has %d dims", name, ndims)
		}
		shape := make([]int, ndims)
		n := 1
		for d := range shape {
			var v uint32
			if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
				return nil, fmt.Errorf("modelio: %s dim %d: %w", name, d, err)
			}
			if v == 0 || int(v) > maxElems {
				return nil, fmt.Errorf("modelio: %s dim %d = %d", name, d, v)
			}
			shape[d] = int(v)
			n *= int(v)
			if n > maxElems {
				return nil, fmt.Errorf("modelio: %s too large", name)
			}
		}
		// Read the payload in bounded chunks and grow the slice as bytes
		// actually arrive: a corrupt header claiming maxElems values must
		// fail on the first missing chunk, not after a 2 GB up-front
		// allocation (the fuzz harness feeds exactly such headers).
		const chunk = 1 << 13
		data := make([]float64, 0, min(n, chunk))
		raw := make([]byte, 8*min(n, chunk))
		for len(data) < n {
			c := min(chunk, n-len(data))
			if _, err := io.ReadFull(br, raw[:8*c]); err != nil {
				return nil, fmt.Errorf("modelio: %s data: %w", name, err)
			}
			for j := 0; j < c; j++ {
				data = append(data, math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:])))
			}
		}
		m.Params = append(m.Params, SavedParam{Name: name, Data: tensor.FromSlice(data, shape...)})
	}
	return m, nil
}

// Apply copies the saved tensors into the given parameters by position,
// verifying names and shapes. The target model must have been built by
// the same deterministic constructor that produced the checkpoint.
func (m *Model) Apply(params []*nn.Param) error {
	if len(params) != len(m.Params) {
		return fmt.Errorf("modelio: checkpoint has %d params, model has %d", len(m.Params), len(params))
	}
	for i, sp := range m.Params {
		p := params[i]
		if p.Name != sp.Name {
			return fmt.Errorf("modelio: param %d name %q, checkpoint has %q", i, p.Name, sp.Name)
		}
		if !p.Data.SameShape(sp.Data) {
			return fmt.Errorf("modelio: param %q shape %v, checkpoint has %v", p.Name, p.Data.Shape(), sp.Data.Shape())
		}
	}
	for i, sp := range m.Params {
		params[i].Data.CopyFrom(sp.Data)
	}
	return nil
}

// Bytes serialises a checkpoint to memory — the form the distributed
// grid protocol streams per-point model snapshots in.
func Bytes(meta map[string]string, params []*nn.Param) ([]byte, error) {
	var buf bytes.Buffer
	if err := Save(&buf, meta, params); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// FromBytes deserialises a checkpoint produced by Bytes (or read back
// from a checkpoint file).
func FromBytes(b []byte) (*Model, error) {
	return Load(bytes.NewReader(b))
}

// SaveFile writes a checkpoint to path.
func SaveFile(path string, meta map[string]string, params []*nn.Param) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Save(f, meta, params); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a checkpoint from path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Fingerprint returns the SHA-256 hex digest of a serialised checkpoint
// — the identity the serve model cache and the grid manifests key on.
// Save writes metadata in sorted key order, so equal models produce
// equal fingerprints.
func Fingerprint(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func writeString(w io.Writer, s string) error {
	if len(s) > maxStringLen {
		return fmt.Errorf("modelio: string too long (%d)", len(s))
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", fmt.Errorf("modelio: string length: %w", err)
	}
	if n > maxStringLen {
		return "", fmt.Errorf("modelio: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("modelio: string body: %w", err)
	}
	return string(buf), nil
}
