package dataset

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadIDX feeds arbitrary bytes to both IDX readers. A file is
// untrusted input: any byte string yields a dataset or an error — never a
// panic, and never an allocation the header alone can size. The seeds are
// what WriteIDX writes; testdata/fuzz/FuzzReadIDX holds the checked-in
// corpus, hostile headers included.
func FuzzReadIDX(f *testing.F) {
	d := mustSynth(f, 3, 1)
	dir := f.TempDir()
	imgs, lbls := filepath.Join(dir, "img"), filepath.Join(dir, "lbl")
	if err := WriteIDX(d, imgs, lbls); err != nil {
		f.Fatal(err)
	}
	for _, p := range []string{imgs, lbls} {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if data, n, h, w, err := readIDXImages(bytes.NewReader(b)); err == nil {
			if n <= 0 || h <= 0 || w <= 0 || len(data) != n*h*w || len(b) < 16+len(data) {
				t.Fatalf("accepted %d×%d×%d images with %d values from %d bytes", n, h, w, len(data), len(b))
			}
		}
		if labels, err := readIDXLabels(bytes.NewReader(b)); err == nil {
			if len(labels) == 0 || len(b) < 8+len(labels) {
				t.Fatalf("accepted %d labels from %d bytes", len(labels), len(b))
			}
			for i, l := range labels {
				if l < 0 || l >= idxNumLabels {
					t.Fatalf("accepted label %d at %d", l, i)
				}
			}
		}
	})
}

// TestReadIDXRejectsHostileHeaders pins the bounds: a 16-byte header
// claiming 65536³ pixels (a 281 TB allocation before the bounds), zero
// dimensions, and labels that are not digits are errors.
func TestReadIDXRejectsHostileHeaders(t *testing.T) {
	header := func(vs ...uint32) []byte {
		var b bytes.Buffer
		for _, v := range vs {
			binary.Write(&b, binary.BigEndian, v)
		}
		return b.Bytes()
	}
	for _, b := range [][]byte{
		header(idxMagicImages, 65536, 65536, 65536),
		header(idxMagicImages, 0, 28, 28),
		header(idxMagicImages, 1, 0, 28),
		header(idxMagicImages, 1<<20, 28, 28),
		append(header(idxMagicImages, 2, 2, 2), 1, 2, 3), // short body
	} {
		if _, _, _, _, err := readIDXImages(bytes.NewReader(b)); err == nil {
			t.Errorf("image header %x accepted", b)
		}
	}
	for _, b := range [][]byte{
		header(idxMagicLabels, 1<<31),
		header(idxMagicLabels, 0),
		append(header(idxMagicLabels, 2), 3, 10),
	} {
		if _, err := readIDXLabels(bytes.NewReader(b)); err == nil {
			t.Errorf("label header %x accepted", b)
		}
	}
}
