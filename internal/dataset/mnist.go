package dataset

import (
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"snnsec/internal/tensor"
)

// IDX magic numbers (big-endian), per the original LeCun format.
const (
	idxMagicImages = 0x00000803 // unsigned byte, 3 dimensions
	idxMagicLabels = 0x00000801 // unsigned byte, 1 dimension
)

// Bounds on what an IDX header may declare, checked before the body is
// read: the header is untrusted, and its dimensions multiply to the
// allocation. MNIST is 60 000 × 28 × 28 with labels 0..9.
const (
	idxMaxSide   = 1 << 10 // image height or width
	idxMaxBytes  = 1 << 28 // pixels (or labels) in one file
	idxNumLabels = 10      // labels are digits
)

// MNISTDirEnv is the environment variable naming a directory containing
// the MNIST IDX files (train-images-idx3-ubyte etc., optionally .gz).
// When set, experiment presets load real MNIST instead of SynthDigits.
const MNISTDirEnv = "SNNSEC_MNIST_DIR"

// openMaybeGzip opens path, or path+".gz" with transparent decompression.
func openMaybeGzip(path string) (io.ReadCloser, error) {
	if f, err := os.Open(path); err == nil {
		return f, nil
	}
	f, err := os.Open(path + ".gz")
	if err != nil {
		return nil, fmt.Errorf("dataset: cannot open %s or %s.gz", path, path)
	}
	zr, err := gzip.NewReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("dataset: %s.gz: %w", path, err)
	}
	return &gzipFile{zr: zr, f: f}, nil
}

type gzipFile struct {
	zr *gzip.Reader
	f  *os.File
}

func (g *gzipFile) Read(p []byte) (int, error) { return g.zr.Read(p) }
func (g *gzipFile) Close() error {
	g.zr.Close()
	return g.f.Close()
}

// readIDXImages parses an idx3-ubyte image file into raw [0,1] floats.
func readIDXImages(rd io.Reader) (data []float64, n, h, w int, err error) {
	var hdr [4]uint32
	for i := range hdr {
		if err = binary.Read(rd, binary.BigEndian, &hdr[i]); err != nil {
			return nil, 0, 0, 0, fmt.Errorf("dataset: short IDX image header: %w", err)
		}
	}
	if hdr[0] != idxMagicImages {
		return nil, 0, 0, 0, fmt.Errorf("dataset: bad IDX image magic %#x", hdr[0])
	}
	n, h, w = int(hdr[1]), int(hdr[2]), int(hdr[3])
	if n == 0 || h == 0 || w == 0 || h > idxMaxSide || w > idxMaxSide || n > idxMaxBytes/(h*w) {
		return nil, 0, 0, 0, fmt.Errorf("dataset: IDX image dimensions %d×%d×%d out of range", n, h, w)
	}
	buf, err := readIDXBody(rd, n*h*w)
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("dataset: short IDX image body: %w", err)
	}
	data = make([]float64, len(buf))
	for i, b := range buf {
		data[i] = float64(b) / 255
	}
	return data, n, h, w, nil
}

// readIDXLabels parses an idx1-ubyte label file.
func readIDXLabels(rd io.Reader) ([]int, error) {
	var hdr [2]uint32
	for i := range hdr {
		if err := binary.Read(rd, binary.BigEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("dataset: short IDX label header: %w", err)
		}
	}
	if hdr[0] != idxMagicLabels {
		return nil, fmt.Errorf("dataset: bad IDX label magic %#x", hdr[0])
	}
	if hdr[1] == 0 || hdr[1] > idxMaxBytes {
		return nil, fmt.Errorf("dataset: IDX label count %d out of range", hdr[1])
	}
	buf, err := readIDXBody(rd, int(hdr[1]))
	if err != nil {
		return nil, fmt.Errorf("dataset: short IDX label body: %w", err)
	}
	labels := make([]int, len(buf))
	for i, b := range buf {
		if b >= idxNumLabels {
			return nil, fmt.Errorf("dataset: IDX label %d at %d is not a digit", b, i)
		}
		labels[i] = int(b)
	}
	return labels, nil
}

// readIDXBody reads exactly n bytes. Memory grows with the bytes that
// arrive, not with the n the header claims.
func readIDXBody(rd io.Reader, n int) ([]byte, error) {
	buf, err := io.ReadAll(io.LimitReader(rd, int64(n)))
	if err == nil && len(buf) < n {
		err = io.ErrUnexpectedEOF
	}
	return buf, err
}

// LoadMNIST reads the classic IDX pair (images, labels) from the given
// paths (gzipped variants are found automatically) and returns a raw
// [0,1] dataset.
func LoadMNIST(imagesPath, labelsPath string) (*Dataset, error) {
	imf, err := openMaybeGzip(imagesPath)
	if err != nil {
		return nil, err
	}
	defer imf.Close()
	data, n, h, w, err := readIDXImages(imf)
	if err != nil {
		return nil, err
	}
	lbf, err := openMaybeGzip(labelsPath)
	if err != nil {
		return nil, err
	}
	defer lbf.Close()
	labels, err := readIDXLabels(lbf)
	if err != nil {
		return nil, err
	}
	if len(labels) != n {
		return nil, fmt.Errorf("dataset: %d images but %d labels", n, len(labels))
	}
	return &Dataset{X: tensor.FromSlice(data, n, 1, h, w), Y: labels}, nil
}

// LoadMNISTDir loads the train or test split from a directory holding the
// standard file names.
func LoadMNISTDir(dir string, train bool) (*Dataset, error) {
	if train {
		return LoadMNIST(
			filepath.Join(dir, "train-images-idx3-ubyte"),
			filepath.Join(dir, "train-labels-idx1-ubyte"))
	}
	return LoadMNIST(
		filepath.Join(dir, "t10k-images-idx3-ubyte"),
		filepath.Join(dir, "t10k-labels-idx1-ubyte"))
}

// WriteIDX writes a dataset back out as an IDX image/label pair (raw
// intensities scaled to bytes). Primarily used by tests to round-trip the
// loader and by users who want to snapshot a synthetic dataset.
func WriteIDX(d *Dataset, imagesPath, labelsPath string) error {
	h, w := d.ImageSize()
	imf, err := os.Create(imagesPath)
	if err != nil {
		return err
	}
	defer imf.Close()
	hdr := []uint32{idxMagicImages, uint32(d.Len()), uint32(h), uint32(w)}
	for _, v := range hdr {
		if err := binary.Write(imf, binary.BigEndian, v); err != nil {
			return err
		}
	}
	buf := make([]byte, d.Len()*h*w)
	for i, v := range d.X.Data() {
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		buf[i] = byte(v*255 + 0.5)
	}
	if _, err := imf.Write(buf); err != nil {
		return err
	}
	lbf, err := os.Create(labelsPath)
	if err != nil {
		return err
	}
	defer lbf.Close()
	if err := binary.Write(lbf, binary.BigEndian, uint32(idxMagicLabels)); err != nil {
		return err
	}
	if err := binary.Write(lbf, binary.BigEndian, uint32(d.Len())); err != nil {
		return err
	}
	lb := make([]byte, d.Len())
	for i, y := range d.Y {
		lb[i] = byte(y)
	}
	_, err = lbf.Write(lb)
	return err
}
