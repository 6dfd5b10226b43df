package serve

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"saco/internal/sparse"
	"saco/internal/wire"
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
	kindEnd
)

// kindPegasos is the retired kind of models the removed Pegasos trainer
// wrote; the decoder refuses it by name.
const kindPegasos Kind = 3

// String names the kind for logs, stats and flags.
func (k Kind) String() string {
	switch k {
	case KindLasso:
		return "lasso"
	case KindSVM:
		return "svm"
	default:
		return "raw"
	}
}

// Classifier reports whether sign(score) is a class label.
func (k Kind) Classifier() bool { return k == KindSVM }

// Model is one immutable trained coefficient vector plus provenance.
// Fields are set at construction and never mutated afterwards — the
// registry hands the same *Model to every concurrent reader, and
// immutability is what makes the atomic-pointer hand-off torn-read
// free.
type Model struct {
	// Kind is the problem family (lasso, svm, raw).
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

	posOnce sync.Once
	pos     []int32 // pos[j] is j's offset in Idx/Val, −1 for an absent feature
	posErr  error
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

// positions returns the model's position map, built once and cached:
// pos[j] is feature j's offset in Idx/Val, −1 where the model has no
// coefficient. The model is validated first, so a malformed Idx/Val is
// an error here rather than a wrong read. The map costs 4·Features
// bytes, which validate caps.
func (m *Model) positions() ([]int32, error) {
	m.posOnce.Do(func() {
		if m.posErr = m.validate(); m.posErr != nil {
			return
		}
		m.pos = make([]int32, m.Features)
		for j := range m.pos {
			m.pos[j] = -1
		}
		for k, j := range m.Idx {
			m.pos[j] = int32(k)
		}
	})
	return m.pos, m.posErr
}

// Score computes y = A·x for a batch of request rows against this
// model. Each row sums v·Val[pos[j]] over its own entries (j, v) in
// ascending j, skipping the features the model lacks: the products
// simd.MergeDot forms, added in its order from +0, so the bits are the
// merge's at O(nnz(row)) per row. A batch is one sequential pass of
// lookups (about 12 k for 256 rows of 48), too little work to pay for a
// fork, so workers is ignored; the parameter stays because the
// benchmark module pins the signature. It is the single
// scoring path: the server's micro-batches and the tests' per-request
// references both go through it, which is what makes "batched equals
// sequential bitwise" checkable.
func (m *Model) Score(a *sparse.CSR, workers int, y []float64) error {
	if a.N != m.Features {
		return fmt.Errorf("serve: batch has %d features, model has %d", a.N, m.Features)
	}
	if len(y) != a.M {
		return fmt.Errorf("serve: %d outputs for %d rows", len(y), a.M)
	}
	pos, err := m.positions()
	if err != nil {
		return err
	}
	for i := range y {
		s := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if k := pos[a.ColIdx[p]]; k >= 0 {
				s += a.Val[p] * m.Val[k]
			}
		}
		y[i] = s
	}
	return nil
}

// TooManyFeaturesError refuses a model whose claimed dimensionality
// would make its position map larger than the largest file the reader
// admits: 4·Features bytes past maxModelBytes.
type TooManyFeaturesError struct {
	Features, Cap int
}

func (e *TooManyFeaturesError) Error() string {
	return fmt.Sprintf("serve: model claims %d features, past the cap of %d: its position map (4 bytes a feature) would outgrow the %d-byte reader cap", e.Features, e.Cap, maxModelBytes)
}

// maxFeatures caps a model's dimensionality so that its position map
// (4 bytes a feature) costs no more than the largest model file.
const maxFeatures = maxModelBytes / 4

// validate checks the structural invariants shared by every load path
// and by scoring.
func (m *Model) validate() error {
	if m.Features < 0 {
		return fmt.Errorf("serve: negative feature count %d", m.Features)
	}
	if m.Features > maxFeatures {
		return &TooManyFeaturesError{Features: m.Features, Cap: maxFeatures}
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
	if m.Kind == kindPegasos {
		return errors.New("serve: model kind 3 (pegasos) is no longer served: the Pegasos trainer was removed; retrain with `sasolve -task svm -out`")
	}
	if m.Kind >= kindEnd {
		return fmt.Errorf("serve: unknown model kind %d", uint32(m.Kind))
	}
	return nil
}

// Binary format constants (layout documented in doc.go).
const (
	modelMagic         = "SACOMDL1"
	modelFormatVersion = 1
	// maxModelBytes bounds how large a model file LoadModelFile will
	// read (1 << 31 covers ~134M nonzeros — far past any dataset in the
	// paper).
	maxModelBytes = 1 << 31
)

// encodeModel renders m as one .sacm image.
func encodeModel(m *Model) ([]byte, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	w := wire.Writer{B: make([]byte, 0, 56+16*len(m.Idx)+8)} // header, indices and values, trailer
	w.Bytes([]byte(modelMagic))
	w.U32(modelFormatVersion)
	w.U32(uint32(m.Kind))
	w.U64(uint64(m.Features))
	w.U64(uint64(m.TrainRows))
	w.F64(m.Lambda)
	w.U64(m.Version)
	w.U64(uint64(len(m.Idx)))
	for _, j := range m.Idx {
		w.U64(uint64(j))
	}
	w.F64s(m.Val)
	return wire.CRC64.Seal(w.B), nil
}

// decodeModel is the one .sacm decoder: it verifies the magic, the
// checksum over the whole payload, the format version, the declared
// sizes and the index invariants before trusting a byte. Any failure is
// an error — a corrupt file never yields a partially-trusted model. The
// reader cap is LoadModelFile's: it applies before the read.
func decodeModel(data []byte) (*Model, error) {
	if len(data) < len(modelMagic) || string(data[:len(modelMagic)]) != modelMagic {
		return nil, fmt.Errorf("serve: bad magic %q: not a .sacm binary model; the text model format (one value per line) is no longer read — re-save with `sasolve -out model.sacm`", data[:min(8, len(data))])
	}
	body, err := wire.CRC64.Open(".sacm", data)
	if err != nil {
		return nil, fmt.Errorf("serve: corrupted model file: %w", err)
	}
	r := wire.NewReader(".sacm", body)
	r.Bytes("magic", len(modelMagic))
	if v := r.U32("version"); v != modelFormatVersion {
		r.Fail("version", "unsupported model format version %d (have %d)", v, modelFormatVersion)
	}
	m := &Model{
		Kind:      Kind(r.U32("kind")),
		Features:  int(r.U64("features")),
		TrainRows: int(r.U64("train rows")),
		Lambda:    r.F64("lambda"),
		Version:   r.U64("model version"),
	}
	nnz := r.Count("nnz", r.U64("nnz"), 16)
	m.Idx = make([]int, nnz)
	for k := range m.Idx {
		m.Idx[k] = int(r.U64("indices"))
	}
	m.Val = make([]float64, nnz)
	r.F64s("values", m.Val)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// WriteModelFile publishes the binary format at path through
// wire.WriteFile (temp file, fsync, rename), so a reader — in
// particular a registry watching the directory the model is being
// trained into — can never observe a partial artifact, and a full disk
// surfaces as an error instead of silent success.
func WriteModelFile(path string, m *Model) error {
	buf, err := encodeModel(m)
	if err != nil {
		return err
	}
	return wire.WriteFile(path, buf)
}

// LoadModelFile reads a binary model from path into the heap. The size
// cap is checked on the open file before a byte is read: a registry
// poll retries a bad newer artifact every tick, and a huge foreign file
// under a model name must cost a stat, not a read.
func LoadModelFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //saco:nolint commerr read-only fd; a close failure after a successful read cannot lose data
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() > maxModelBytes {
		return nil, fmt.Errorf("serve: model file is %d bytes, past the %d-byte reader cap", st.Size(), maxModelBytes)
	}
	data := make([]byte, st.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, err
	}
	return decodeModel(data)
}
