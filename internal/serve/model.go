package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"os"
	"sync"

	"saco/internal/sparse"
	"saco/internal/stream"
)

// Kind identifies the problem family a model was trained on. It decides
// how predictions are interpreted (regression value vs. classification
// margin); scoring itself is kind-agnostic.
type Kind uint32

const (
	// KindRaw marks a model of unknown provenance (a bare coefficient
	// vector wrapped with NewModel).
	KindRaw Kind = iota
	// KindLasso is a sparse least-squares model; scores are regression
	// values.
	KindLasso
	// KindSVM is a linear SVM; scores are margins, sign(score) the label.
	KindSVM
	// KindPegasos is a Pegasos-trained SVM; scores are margins.
	KindPegasos
	kindEnd
)

// String names the kind for logs, stats and flags.
func (k Kind) String() string {
	switch k {
	case KindLasso:
		return "lasso"
	case KindSVM:
		return "svm"
	case KindPegasos:
		return "pegasos"
	default:
		return "raw"
	}
}

// Classifier reports whether sign(score) is a class label.
func (k Kind) Classifier() bool { return k == KindSVM || k == KindPegasos }

// Model is one immutable trained coefficient vector plus provenance.
// Fields are set at construction and never mutated afterwards — the
// registry hands the same *Model to every concurrent reader, and
// immutability is what makes the atomic-pointer hand-off torn-read
// free.
type Model struct {
	// Kind is the problem family (lasso, svm, pegasos, raw).
	Kind Kind
	// Features is the model dimensionality n; requests with indices
	// beyond it are rejected.
	Features int
	// TrainRows is the number of rows the model was fitted on
	// (informational).
	TrainRows int
	// Lambda is the regularization strength used in training.
	Lambda float64
	// Version is the registry sequence number (0 until published).
	Version uint64
	// Idx/Val are the nonzero coordinates, Idx strictly increasing.
	Idx []int
	Val []float64

	denseOnce sync.Once
	dense     []float64
}

// NewModel builds a model from a dense coefficient vector, keeping only
// the nonzeros (the Lasso penalty exists to make that small).
func NewModel(kind Kind, x []float64) *Model {
	m := &Model{Kind: kind, Features: len(x)}
	for j, v := range x {
		if v != 0 {
			m.Idx = append(m.Idx, j)
			m.Val = append(m.Val, v)
		}
	}
	return m
}

// NNZ returns the model's support size.
func (m *Model) NNZ() int { return len(m.Idx) }

// Dense returns the dense expansion of the coefficient vector, built
// once and cached. The returned slice is shared — callers must not
// mutate it. (The refit loop uses it as the warm start X0.)
func (m *Model) Dense() []float64 {
	m.denseOnce.Do(func() {
		m.dense = make([]float64, m.Features)
		for k, j := range m.Idx {
			m.dense[j] = m.Val[k]
		}
	})
	return m.dense
}

// Score computes y = A·x for a batch of request rows against this
// model with the batched sparse-model kernel on workers pool lanes
// (0 = GOMAXPROCS, 1 = sequential). It is the single scoring path:
// the server's micro-batches and the tests' per-request references both
// go through it, which is what makes "batched equals sequential
// bitwise" checkable.
func (m *Model) Score(a *sparse.CSR, workers int, y []float64) error {
	if a.N != m.Features {
		return fmt.Errorf("serve: batch has %d features, model has %d", a.N, m.Features)
	}
	if len(y) != a.M {
		return fmt.Errorf("serve: %d outputs for %d rows", len(y), a.M)
	}
	a.WithKernelWorkers(workers).(*sparse.CSR).MulSparseVec(m.Idx, m.Val, y)
	return nil
}

// validate checks the structural invariants shared by every load path.
func (m *Model) validate() error {
	if m.Features < 0 {
		return fmt.Errorf("serve: negative feature count %d", m.Features)
	}
	if len(m.Idx) != len(m.Val) {
		return fmt.Errorf("serve: %d indices for %d values", len(m.Idx), len(m.Val))
	}
	prev := -1
	for _, j := range m.Idx {
		if j <= prev {
			return fmt.Errorf("serve: model indices not strictly increasing at %d", j)
		}
		if j >= m.Features {
			return fmt.Errorf("serve: model index %d out of range (dim mismatch: %d features declared)", j, m.Features)
		}
		prev = j
	}
	if m.Kind >= kindEnd {
		return fmt.Errorf("serve: unknown model kind %d", uint32(m.Kind))
	}
	return nil
}

// Binary format constants (layout documented in doc.go).
var modelMagic = [8]byte{'S', 'A', 'C', 'O', 'M', 'D', 'L', '1'}

const (
	modelFormatVersion = 1
	modelHeaderSize    = 56 // magic through nnz
	// maxModelBytes bounds how large a model file a reader will accept
	// (1 << 31 covers ~134M nonzeros — far past any dataset in the
	// paper) so a corrupt nnz field cannot drive allocation.
	maxModelBytes = 1 << 31
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// encodeModel renders m as one .sacm image.
func encodeModel(m *Model) ([]byte, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	buf := make([]byte, modelHeaderSize+16*len(m.Idx)+8)
	copy(buf, modelMagic[:])
	le := binary.LittleEndian
	le.PutUint32(buf[8:], modelFormatVersion)
	le.PutUint32(buf[12:], uint32(m.Kind))
	le.PutUint64(buf[16:], uint64(m.Features))
	le.PutUint64(buf[24:], uint64(m.TrainRows))
	le.PutUint64(buf[32:], math.Float64bits(m.Lambda))
	le.PutUint64(buf[40:], m.Version)
	le.PutUint64(buf[48:], uint64(len(m.Idx)))
	off := modelHeaderSize
	for _, j := range m.Idx {
		le.PutUint64(buf[off:], uint64(j))
		off += 8
	}
	for _, v := range m.Val {
		le.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	le.PutUint64(buf[off:], crc64.Checksum(buf[:off], crcTable))
	return buf, nil
}

// decodeModel is the one .sacm decoder: it verifies the reader cap, the
// magic, the format version, the declared sizes, the checksum over the
// whole payload and the index invariants before trusting a byte. Any
// failure is an error — a corrupt file never yields a partially-trusted
// model.
//
// alias asks for Val to alias data's value section in place instead of
// copying it (the mmap load); aliased reports that it does, and the
// caller must then keep data alive as long as the model. Where the
// platform cannot alias (big-endian host, misaligned section) the values
// are copied out of the same validated bytes.
func decodeModel(data []byte, alias bool) (m *Model, aliased bool, err error) {
	if len(data) > maxModelBytes {
		return nil, false, fmt.Errorf("serve: model file exceeds the %d-byte reader cap", maxModelBytes)
	}
	if len(data) < 8 || !bytes.Equal(data[:8], modelMagic[:]) {
		return nil, false, fmt.Errorf("serve: bad magic %q: not a .sacm binary model; the text model format (one value per line) is no longer read — re-save with `sasolve -out model.sacm`", data[:min(8, len(data))])
	}
	if len(data) < modelHeaderSize+8 {
		return nil, false, fmt.Errorf("serve: model file truncated (%d bytes)", len(data))
	}
	le := binary.LittleEndian
	if v := le.Uint32(data[8:]); v != modelFormatVersion {
		return nil, false, fmt.Errorf("serve: unsupported model format version %d (have %d)", v, modelFormatVersion)
	}
	nnz := le.Uint64(data[48:])
	// Bound nnz by the file length before any arithmetic on it: a
	// corrupt field near 2⁶⁴/16 would otherwise wrap 16*nnz, slip past
	// the size equality and drive make() into a panic.
	if nnz > uint64(len(data))/16 {
		return nil, false, fmt.Errorf("serve: model header declares %d nonzeros in a %d-byte file", nnz, len(data))
	}
	if want := modelHeaderSize + 16*nnz + 8; uint64(len(data)) != want {
		return nil, false, fmt.Errorf("serve: model file is %d bytes, header declares %d (nnz=%d)", len(data), want, nnz)
	}
	payload := data[:len(data)-8]
	if got, stored := crc64.Checksum(payload, crcTable), le.Uint64(data[len(data)-8:]); got != stored {
		return nil, false, fmt.Errorf("serve: model checksum mismatch (stored %016x, computed %016x): corrupted file", stored, got)
	}
	m = &Model{
		Kind:      Kind(le.Uint32(data[12:])),
		Features:  int(le.Uint64(data[16:])),
		TrainRows: int(le.Uint64(data[24:])),
		Lambda:    math.Float64frombits(le.Uint64(data[32:])),
		Version:   le.Uint64(data[40:]),
	}
	if nnz > 0 {
		// Indices widen uint64→int, so they always copy; values are raw
		// IEEE-754 little-endian at offset 56+8·nnz — 8-aligned on a
		// page-aligned mapping — and can alias in place.
		m.Idx = make([]int, nnz)
		off := modelHeaderSize
		for k := range m.Idx {
			m.Idx[k] = int(le.Uint64(data[off:]))
			off += 8
		}
		if alias {
			m.Val, aliased = stream.AsFloat64LE(data[off:], int(nnz))
		}
		if !aliased {
			m.Val = make([]float64, nnz)
			for k := range m.Val {
				m.Val[k] = math.Float64frombits(le.Uint64(data[off:]))
				off += 8
			}
		}
	}
	if err := m.validate(); err != nil {
		return nil, false, err
	}
	return m, aliased, nil
}

// WriteModelFile publishes the binary format at path through
// stream.WriteFileAtomic (temp file, fsync, rename), so a reader — in
// particular a registry watching the directory the model is being
// trained into — can never observe a partial artifact, and a full disk
// surfaces as an error instead of silent success.
func WriteModelFile(path string, m *Model) error {
	buf, err := encodeModel(m)
	if err != nil {
		return err
	}
	return stream.WriteFileAtomic(path, buf)
}

// LoadModelFile reads a binary model from path into the heap.
func LoadModelFile(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, _, err := decodeModel(data, false)
	return m, err
}
