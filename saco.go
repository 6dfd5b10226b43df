// Package saco (Synchronization-Avoiding Convex Optimization) is a Go
// implementation of the solvers from
//
//	Devarakonda, Fountoulakis, Demmel, Mahoney.
//	"Avoiding Synchronization in First-Order Methods for Sparse Convex
//	Optimization." IPDPS 2018 (arXiv:1712.06047).
//
// It provides randomized (block) coordinate descent for sparse proximal
// least squares (Lasso, elastic net, group lasso) and dual coordinate
// descent for linear SVM (hinge and squared hinge), each in a classical
// per-iteration-synchronizing form and a synchronization-avoiding (SA)
// form that communicates once every s iterations while producing the
// same iterate sequence up to floating-point roundoff.
//
// Three ways to run a solver:
//
//   - sequentially on this machine: Lasso, SVM;
//   - distributed: DistLasso, DistSVM over a Cluster naming a transport —
//     the in-process simulated world (goroutine ranks, recursive-doubling
//     collectives, Cray XC30 cost model; TransportSim, the default) or a
//     real TCP mesh (TransportTCP in-process, cmd/sarank across
//     processes and machines), both bitwise-identical in trajectory;
//   - through the experiment harness regenerating the paper's tables and
//     figures: cmd/saexp.
//
// Quickstart:
//
//	data := saco.Regression("demo", 1, 1000, 500, 0.05, 10, 0.1)
//	lambda := 0.1 * saco.LambdaMax(data.Cols(), data.B)
//	res, err := saco.Lasso(data.Cols(), data.B, saco.LassoOptions{
//		Lambda: lambda, BlockSize: 8, Iters: 2000, Accelerated: true, S: 64,
//	})
//
// The facade carries what something calls: every exported function here
// has a caller under cmd/, examples/ or in a README snippet
// (TestFacadeNamesHaveCallers), and type aliases and constants exist to
// name the parameters, results and option values of those functions.
package saco

import (
	"context"

	"saco/internal/core"
	"saco/internal/datagen"
	"saco/internal/dist"
	"saco/internal/libsvm"
	"saco/internal/metrics"
	"saco/internal/mpi"
	"saco/internal/serve"
	"saco/internal/sparse"
	"saco/internal/stream"
)

// Core solver types, re-exported from the implementation packages.
type (
	// LassoOptions configures the Lasso-family solvers (see core docs).
	LassoOptions = core.LassoOptions
	// LassoResult is the Lasso solver output.
	LassoResult = core.LassoResult
	// SVMOptions configures the dual coordinate-descent SVM solvers.
	SVMOptions = core.SVMOptions
	// SVMResult is the SVM solver output.
	SVMResult = core.SVMResult
	// SVMLoss selects hinge (SVML1) or squared hinge (SVML2).
	SVMLoss = core.SVMLoss
	// Regularizer is a convex penalty with a proximal operator.
	Regularizer = core.Regularizer
	// L1 is the Lasso penalty λ‖x‖₁.
	L1 = core.L1
	// ElasticNet is λ(α‖x‖₁ + (1−α)/2‖x‖₂²).
	ElasticNet = core.ElasticNet
	// GroupLasso is λ·Σ_g‖x_g‖₂ over disjoint groups.
	GroupLasso = core.GroupLasso
	// ColMatrix is the column-sampling access the Lasso solvers need.
	ColMatrix = core.ColMatrix
	// RowMatrix is the row-sampling access the SVM solvers need.
	RowMatrix = core.RowMatrix
	// TracePoint is one tracked objective value.
	TracePoint = core.TracePoint
	// GapPoint is one tracked duality-gap measurement.
	GapPoint = core.GapPoint
)

// Hinge-loss selectors.
const (
	SVML1 = core.SVML1
	SVML2 = core.SVML2
)

// Execution-backend selection: every solve runs sequentially by default;
// BackendMulticore forks its matrix kernels across shared-memory
// executors where the work pays for a fork; and the simulated cluster
// (DistLasso / DistSVM) models distributed execution, optionally hybrid
// rank×thread via Cluster.RankWorkers. Multicore execution parallelizes
// only independent output elements with unchanged summation order, so
// iterates are bitwise identical to the sequential backend — the
// shared-memory counterpart of the paper's same-sequence claim.
type (
	// Exec selects the execution backend of one solve (LassoOptions.Exec,
	// SVMOptions.Exec).
	Exec = core.Exec
	// Backend enumerates the shared-memory backends.
	Backend = core.Backend
)

// Backend selectors.
const (
	BackendSequential = core.BackendSequential
	BackendMulticore  = core.BackendMulticore
)

// Multicore returns an Exec selecting the multicore backend with w
// workers; w <= 0 uses every core (GOMAXPROCS).
func Multicore(w int) Exec {
	if w < 0 {
		w = 0
	}
	return Exec{Backend: core.BackendMulticore, Workers: w}
}

// Matrix and dataset types.
type (
	// CSR is a compressed sparse row matrix (implements RowMatrix).
	CSR = sparse.CSR
	// CSC is a compressed sparse column matrix (implements ColMatrix).
	CSC = sparse.CSC
	// Dataset is a generated or loaded problem instance.
	Dataset = datagen.Dataset
)

// Distributed-execution types.
type (
	// Machine is the α-β-γ cost model of the modeled platform.
	Machine = mpi.Machine
	// Cluster configures a distributed run: rank count, cost model,
	// transport (Cluster.Transport: TransportSim or TransportTCP) and the
	// hybrid rank×thread core budget.
	Cluster = dist.Options
	// ClusterTransport selects how a Cluster executes its ranks.
	ClusterTransport = dist.Transport
	// DistLassoResult is the outcome of DistLasso.
	DistLassoResult = dist.LassoResult
	// DistSVMResult is the outcome of DistSVM.
	DistSVMResult = dist.SVMResult
	// TimedPoint is a convergence point stamped with modeled seconds.
	TimedPoint = dist.TimedPoint
)

// Cluster transport selectors.
const (
	// TransportSim runs ranks as goroutines over the in-process
	// simulated world (the default).
	TransportSim = dist.TransportSim
	// TransportTCP runs ranks over a real loopback TCP mesh within this
	// process; for one-rank-per-process clusters use cmd/sarank.
	TransportTCP = dist.TransportTCP
)

// Lasso solves min ½‖Ax−b‖² + g(x) sequentially. Set opt.S > 1 for the
// synchronization-avoiding variant, opt.Accelerated for accCD/accBCD.
func Lasso(a ColMatrix, b []float64, opt LassoOptions) (*LassoResult, error) {
	return core.Lasso(a, b, opt)
}

// SVM trains a linear SVM by dual coordinate descent sequentially.
func SVM(a RowMatrix, b []float64, opt SVMOptions) (*SVMResult, error) {
	return core.SVM(a, b, opt)
}

// DistLasso runs the distributed Lasso solver (1D-row partitioning,
// Fig. 1 of the paper) on the cluster, whose Transport field names the
// execution backend: TransportSim (goroutine ranks over the in-process
// simulated world, the default) or TransportTCP (one goroutine per rank
// over a real loopback TCP mesh). Both transports carry the same
// message DAG, so the trajectory — solution, objective, trace and
// modeled cost statistics — is bitwise identical across them. For
// one-rank-per-OS-process clusters, run cmd/sarank on each node.
func DistLasso(src ClusterSource, b []float64, opt LassoOptions, cluster Cluster) (*DistLassoResult, error) {
	return dist.LassoFrom(src, b, opt, cluster)
}

// DistSVM is the 1D-column twin of DistLasso: distributed dual
// coordinate descent for the linear SVM over the transport named by
// cluster.Transport, bitwise identical across transports.
func DistSVM(src ClusterSource, b []float64, opt SVMOptions, cluster Cluster) (*DistSVMResult, error) {
	return dist.SVMFrom(src, b, opt, cluster)
}

// MatrixSource adapts an in-memory CSR matrix into a ClusterSource for
// DistLasso / DistSVM; each rank slices exactly its block from it.
func MatrixSource(a *CSR) ClusterSource { return dist.CSRSource{A: a} }

// LambdaMax returns ‖Aᵀb‖_∞, the smallest λ with an all-zero Lasso
// solution; experiments typically use a fraction of it.
func LambdaMax(a ColMatrix, b []float64) float64 { return core.LambdaMaxL1(a, b) }

// CrayXC30 models the paper's evaluation platform.
func CrayXC30() Machine { return mpi.CrayXC30() }

// MachineByName maps a -machine flag value (cray, ethernet, spark) onto
// its preset; the error names the accepted values.
func MachineByName(name string) (Machine, error) { return mpi.MachineByName(name) }

// LoadLIBSVM reads a LIBSVM-format file (the format of every dataset in
// the paper's Tables II and IV). features = 0 infers the width.
func LoadLIBSVM(path string, features int) (*CSR, []float64, error) {
	return libsvm.ReadFile(path, features)
}

// SaveLIBSVM writes a matrix and labels in LIBSVM format.
func SaveLIBSVM(path string, a *CSR, labels []float64) error {
	return libsvm.WriteFile(path, a, labels)
}

// Regression generates a synthetic sparse regression problem with a
// planted k-sparse model: b = A·x* + sigma·noise.
func Regression(name string, seed uint64, m, n int, density float64, k int, sigma float64) *Dataset {
	return datagen.Regression(name, seed, m, n, density, k, sigma)
}

// Classification generates a synthetic sparse binary classification
// problem with a planted separator.
func Classification(name string, seed uint64, m, n int, density, sigma float64) *Dataset {
	return datagen.Classification(name, seed, m, n, density, sigma)
}

// Replica generates a named stand-in for one of the paper's LIBSVM
// datasets (url, news20, covtype, epsilon, leu, w1a, duke,
// news20.binary, rcv1.binary, gisette, leu.binary); see internal/datagen.
func Replica(name string, scale float64, seed uint64) (*Dataset, error) {
	return datagen.Replica(name, scale, seed)
}

// Out-of-core streaming dataset types (internal/stream): LIBSVM inputs
// ingested into row-block shards on disk so paper-scale matrices solve
// in bounded memory. StreamDataset.Cols() / .Rows() plug into Lasso,
// LassoPath and SVM; sequential-backend trajectories are
// bitwise identical to the in-memory solvers. A store spills in one of
// two layouts, and the task picks it: column-major (LayoutCSC) for
// Lasso, whose column solves then perform zero CSR→CSC conversions, and
// row-major (LayoutCSR) for the SVM. Either task solves bitwise over
// either layout; the other one only costs a conversion per shard load.
type (
	// StreamDataset is an out-of-core dataset spilled to a shard cache
	// directory.
	StreamDataset = stream.Dataset
	// StreamOptions configures an out-of-core ingestion (block rows,
	// feature count, spill layout).
	StreamOptions = stream.BuildOptions
	// StreamBlock is one CSR row block of a sequential pass.
	StreamBlock = stream.Block
	// StreamLayout selects row-major (LayoutCSR) or column-major
	// (LayoutCSC) shards.
	StreamLayout = stream.Layout
	// StreamCacheStats is a snapshot of the shard cache's decision
	// counters (hits, misses, loads, prefetches, conversions).
	StreamCacheStats = stream.CacheStats
	// ClusterSource supplies partitioned blocks to a distributed run;
	// StreamDataset implements it out of core, MatrixSource adapts an
	// in-memory CSR.
	ClusterSource = dist.Source
)

// Streaming layout selectors.
const (
	LayoutCSR = stream.LayoutCSR
	LayoutCSC = stream.LayoutCSC
)

// ParseSVMLoss maps a flag value ("l1", "l2") onto an SVMLoss.
func ParseSVMLoss(s string) (SVMLoss, error) { return core.ParseSVMLoss(s) }

// BuildStream ingests a LIBSVM file into cacheDir in bounded memory,
// spilling row-block shards; peak resident matrix data is about two
// blocks (the one in use and the prefetched one) regardless of file
// size.
func BuildStream(svmPath, cacheDir string, opt StreamOptions) (*StreamDataset, error) {
	return stream.BuildFile(svmPath, cacheDir, opt)
}

// OpenStream reopens a previously built shard cache directory without
// re-ingesting the text file.
func OpenStream(cacheDir string) (*StreamDataset, error) {
	return stream.Open(cacheDir)
}

// PathPoint is one solution along a Lasso regularization path.
type PathPoint = core.PathPoint

// LassoPath solves the Lasso problem along a descending λ sequence with
// warm starts; the SA options apply to every solve.
func LassoPath(a ColMatrix, b []float64, lambdas []float64, opt LassoOptions) ([]PathPoint, error) {
	return core.LassoPath(a, b, lambdas, opt)
}

// Model-serving types (internal/serve): a versioned binary model
// format, a registry that hot-swaps model versions through an atomic
// pointer, an HTTP scoring server that micro-batches concurrent
// requests into one scoring call per batch, and a live refit on the
// sequential solver whose published versions are bitwise the batch
// solve at their iteration count. See cmd/saserve for the binary.
type (
	// Model is one immutable trained coefficient vector plus provenance
	// (kind, dims, lambda, registry version).
	Model = serve.Model
	// ModelKind tags the problem family of a Model.
	ModelKind = serve.Kind
	// ModelRegistry stores versioned models behind a lock-free atomic
	// pointer, watching a directory for hot swaps.
	ModelRegistry = serve.Registry
	// ServeOptions tunes the scoring server (batch size, admission
	// control, /learn).
	ServeOptions = serve.Options
	// ServeServer answers /predict, /stats (and /learn, /cluster*) next
	// to the shared ops routes /healthz, /readyz and /metrics; /stats is
	// a JSON view of the counters /metrics encodes.
	ServeServer = serve.Server
	// RefitOptions tunes the live refit (cadence, seed, task, lambda).
	RefitOptions = serve.RefitOptions
	// ServeCluster shards a fleet of named models across a static peer
	// list with a consistent-hash ring; each replica owns a slice of
	// the model directories and forwards the rest.
	ServeCluster = serve.Cluster
	// ServeClusterOptions configures a ServeCluster (rescan cadence,
	// metrics).
	ServeClusterOptions = serve.ClusterOptions
	// ServeClusterStatus is the GET /cluster reply.
	ServeClusterStatus = serve.ClusterStatus
	// LearnBuffer is the bounded staging buffer between POST /learn and
	// a live refit.
	LearnBuffer = serve.LearnBuffer
	// MetricsRegistry is a zero-dependency Prometheus-text metrics
	// registry (counters, gauges, histograms) servable at /metrics.
	MetricsRegistry = metrics.Registry
)

// Model kinds.
const (
	KindRaw   = serve.KindRaw
	KindLasso = serve.KindLasso
	KindSVM   = serve.KindSVM
)

// NewModel builds a Model from a dense coefficient vector, keeping the
// nonzeros.
func NewModel(kind ModelKind, x []float64) *Model { return serve.NewModel(kind, x) }

// LoadModel reads a model file in the versioned binary format (.sacm).
// The text format (one value per line) is no longer read; re-save such
// a model with `sasolve -out model.sacm`.
func LoadModel(path string) (*Model, error) { return serve.LoadModelFile(path) }

// SaveModel writes a model in the versioned binary format (sparse
// coefficients, provenance header, checksum).
func SaveModel(path string, m *Model) error { return serve.WriteModelFile(path, m) }

// OpenModelRegistry opens (creating if needed) a model directory and
// serves the newest valid version in it.
func OpenModelRegistry(dir string) (*ModelRegistry, error) {
	return serve.OpenRegistry(dir)
}

// NewCluster joins a static peer list as self and takes ownership of
// this replica's ring slice of the model directories under root; pair
// it with NewClusterServer. Close it when done.
func NewCluster(root, self string, peers []string, opt ServeClusterOptions) (*ServeCluster, error) {
	return serve.NewCluster(root, self, peers, opt)
}

// NewClusterServer starts a scoring server fronting a cluster's owned
// models: /predict and /learn take a ?model= name, resolve it against
// the shard ring, and forward to the owning replica when it is not
// this one.
func NewClusterServer(c *ServeCluster, opt ServeOptions) *ServeServer {
	return serve.NewClusterServer(c, opt)
}

// RefitStream drains a LearnBuffer on a cadence into a live refit over
// a sliding window of recent rows, publishing a model version per
// productive cycle until ctx is cancelled. It is the
// consumer behind POST /learn (start it from ServeOptions.OnLearn).
func RefitStream(ctx context.Context, reg *ModelRegistry, buf *LearnBuffer, opt RefitOptions) error {
	return serve.RefitStream(ctx, reg, buf, opt)
}

// NewMetricsRegistry returns an empty metrics registry. Pass one to
// ServeOptions.Metrics / ServeClusterOptions.Metrics to have the serving
// layer count into (and serve at /metrics) a registry the caller also
// registers its own series in; left nil, the server makes its own.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewServer starts a scoring server over a registry; serve Handler()
// on a listener of your own (or use cmd/saserve, which listens with
// internal/ops' fixed connection limits).
func NewServer(reg *ModelRegistry, opt ServeOptions) *ServeServer { return serve.NewServer(reg, opt) }

// Refit trains the sequential solver on labeled rows, warm-started from
// the registry's serving model (Lasso), and publishes its live iterate
// on a cadence until ctx is cancelled; every version is bitwise
// Lasso / SVM at the iteration count its log line names.
func Refit(ctx context.Context, reg *ModelRegistry, a *CSR, b []float64, opt RefitOptions) error {
	return serve.Refit(ctx, reg, a, b, opt)
}

// Predict returns the decision values A·x for a fitted model.
func Predict(a RowMatrix, x []float64) []float64 {
	m, _ := a.Dims()
	out := make([]float64, m)
	a.MulVec(x, out)
	return out
}

// Accuracy returns the fraction of labels whose sign the model x
// predicts correctly (binary classification with ±1 labels).
func Accuracy(a RowMatrix, b, x []float64) float64 {
	if len(b) == 0 {
		return 0
	}
	margins := Predict(a, x)
	correct := 0
	for i, v := range margins {
		if v*b[i] > 0 {
			correct++
		}
	}
	return float64(correct) / float64(len(b))
}
