package serve

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"saco/internal/metrics"
	"saco/internal/sparse"
)

// clusterReplica is one in-process saserve-equivalent: a Cluster over
// the shared root plus a Server on a real loopback listener (real
// listeners, not httptest, because the listen address doubles as the
// replica's ring identity).
type clusterReplica struct {
	addr string
	c    *Cluster
	srv  *Server
	mr   *metrics.Registry
	hs   *http.Server
}

// startCluster brings up n replicas over one shared model root.
func startCluster(t *testing.T, root string, n int) []*clusterReplica {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	reps := make([]*clusterReplica, n)
	for i := range reps {
		mr := metrics.NewRegistry()
		c, err := NewCluster(root, addrs[i], addrs, ClusterOptions{
			RescanEvery: 20 * time.Millisecond,
			Metrics:     mr,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := NewClusterServer(c, Options{QueueDepth: 512, LearnCap: 4096, Metrics: mr})
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(lns[i]) //nolint:errcheck // closed at cleanup
		reps[i] = &clusterReplica{addr: addrs[i], c: c, srv: srv, mr: mr, hs: hs}
	}
	t.Cleanup(func() {
		for _, r := range reps {
			r.hs.Close()
			r.srv.Close()
			r.c.Close()
		}
	})
	return reps
}

// libsvmBody renders rows as a LIBSVM /predict body; FormatFloat 'g'
// -1 round-trips every float64 bit for bit through the parser.
func libsvmBody(cols [][]int, vals [][]float64) []byte {
	var sb strings.Builder
	for r := range cols {
		for k, j := range cols[r] {
			if k > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(strconv.Itoa(j + 1))
			sb.WriteByte(':')
			sb.WriteString(strconv.FormatFloat(vals[r][k], 'g', -1, 64))
		}
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

// randRows draws deterministic sparse request rows within n features.
func randRows(rng *rand.Rand, rows, n int) (cols [][]int, vals [][]float64) {
	for r := 0; r < rows; r++ {
		nnz := 1 + rng.Intn(6)
		perm := rng.Perm(n)[:nnz]
		c := append([]int(nil), perm...)
		for i := 1; i < len(c); i++ { // insertion sort: strictly increasing
			for j := i; j > 0 && c[j] < c[j-1]; j-- {
				c[j], c[j-1] = c[j-1], c[j]
			}
		}
		v := make([]float64, nnz)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		cols = append(cols, c)
		vals = append(vals, v)
	}
	return cols, vals
}

// modelCache loads published artifacts by (name, version), once each.
type modelCache struct {
	mu   sync.Mutex
	root string
	m    map[string]*Model
}

func (mc *modelCache) load(t *testing.T, name string, version uint64) *Model {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	key := fmt.Sprintf("%s@%d", name, version)
	if m := mc.m[key]; m != nil {
		return m
	}
	m, err := LoadModelFile(filepath.Join(mc.root, name, fmt.Sprintf(modelFilePattern, version)))
	if err != nil {
		t.Errorf("load %s: %v", key, err)
		return nil
	}
	mc.m[key] = m
	return m
}

// scrapeValue extracts one unlabeled sample from a /metrics scrape.
func scrapeValue(t *testing.T, scrape []byte, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(scrape), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// TestClusterE2E is the multi-replica harness: three replicas share a
// model root, every replica is an entry point for every model, and
// predict traffic runs concurrently with hot-swap publishes and learn
// ingest. Every successful prediction is verified bitwise against a
// single-process scoring of the exact model version the reply names —
// the no-torn-read and batched==sequential contracts, surviving
// forwarding and mid-flight swaps.
func TestClusterE2E(t *testing.T) {
	root := t.TempDir()
	names := []string{"alpha", "beta", "gamma", "delta"}
	const features = 80

	// Seed version 1 of every model before the replicas come up, via
	// independent writer handles (the trainer's side of the protocol).
	writers := make(map[string]*Registry, len(names))
	for i, name := range names {
		w, err := OpenRegistry(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		w.Retain = -1 // every version stays checkable on disk
		if _, err := w.Publish(testModel(KindLasso, features, 13, int64(i+1))); err != nil {
			t.Fatal(err)
		}
		writers[name] = w
	}

	reps := startCluster(t, root, 3)

	cache := &modelCache{root: root, m: make(map[string]*Model)}
	var rows200 atomic.Uint64  // rows in 200 replies (the scoring ledger)
	var predicts atomic.Uint64 // /predict requests this driver sent

	// Every (entry replica, model) pair must answer before the storm;
	// probe attempts join the request ledger like any other traffic.
	probeCols, probeVals := randRows(rand.New(rand.NewSource(99)), 1, features)
	probe := libsvmBody(probeCols, probeVals)
	deadline := time.Now().Add(10 * time.Second)
	for _, r := range reps {
		for _, name := range names {
			for {
				predicts.Add(1)
				status, _ := post(t, "http://"+r.addr+"/predict?model="+name, "text/plain", probe)
				if status == http.StatusOK {
					rows200.Add(1)
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("replica %s never served %s (status %d)", r.addr, name, status)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
	}

	stopSwap := make(chan struct{})
	var swapWG sync.WaitGroup
	swapWG.Add(1)
	go func() { // hot-swap publisher: new versions under live traffic
		defer swapWG.Done()
		rng := rand.New(rand.NewSource(42))
		for v := 0; ; v++ {
			select {
			case <-stopSwap:
				return
			case <-time.After(5 * time.Millisecond):
			}
			name := names[v%len(names)]
			if _, err := writers[name].Publish(testModel(KindLasso, features, 9+v%7, rng.Int63())); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	const drivers = 6
	const iters = 40
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(d) + 7))
			for i := 0; i < iters; i++ {
				name := names[(d+i)%len(names)]
				entry := reps[(d*iters+i)%len(reps)]
				cols, vals := randRows(rng, 1+rng.Intn(4), features)
				predicts.Add(1)
				status, body := post(t, "http://"+entry.addr+"/predict?model="+name, "text/plain", libsvmBody(cols, vals))
				if status != http.StatusOK {
					t.Errorf("predict %s via %s: status %d: %s", name, entry.addr, status, body)
					continue
				}
				pr := decodePredict(t, body)
				m := cache.load(t, name, pr.ModelVersion)
				if m == nil {
					continue
				}
				// Single-process reference scoring of the same rows
				// against the exact version the reply names.
				rowPtr := make([]int, 1, len(cols)+1)
				var ci []int
				var cv []float64
				for r := range cols {
					ci = append(ci, cols[r]...)
					cv = append(cv, vals[r]...)
					rowPtr = append(rowPtr, len(cv))
				}
				a, err := sparse.NewCSR(len(cols), features, rowPtr, ci, cv)
				if err != nil {
					t.Error(err)
					continue
				}
				want := make([]float64, len(cols))
				if err := m.Score(a, 1, want); err != nil {
					t.Error(err)
					continue
				}
				if len(pr.Scores) != len(want) {
					t.Errorf("%d scores for %d rows", len(pr.Scores), len(want))
					continue
				}
				for k := range want {
					if math.Float64bits(pr.Scores[k]) != math.Float64bits(want[k]) {
						t.Errorf("%s@%d row %d: cluster score %x, single-process %x",
							name, pr.ModelVersion, k, math.Float64bits(pr.Scores[k]), math.Float64bits(want[k]))
					}
				}
				rows200.Add(uint64(len(cols)))
			}
		}(d)
	}

	// Learn ingest rides along: labeled rows for a model that does not
	// exist yet; accepted (202) or backpressured (429), never an error.
	// It enters via the owning replica directly so the forward counters
	// below stay a pure predict ledger.
	learnOwner := reps[0]
	for _, r := range reps {
		if r.addr == reps[0].c.Ring().Owner("epsilon") {
			learnOwner = r
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1234))
		for i := 0; i < 30; i++ {
			cols, vals := randRows(rng, 2, features)
			var sb bytes.Buffer
			for r := range cols {
				fmt.Fprintf(&sb, "%d %s", 1-2*(r%2), bytes.TrimSpace(libsvmBody(cols[r:r+1], vals[r:r+1])))
				sb.WriteByte('\n')
			}
			status, body := post(t, "http://"+learnOwner.addr+"/learn?model=epsilon", "text/plain", sb.Bytes())
			if status != http.StatusAccepted && status != http.StatusTooManyRequests {
				t.Errorf("learn status %d: %s", status, body)
			}
		}
	}()

	wg.Wait()
	close(stopSwap)
	swapWG.Wait()

	// The /metrics ledgers reconcile with the driver's: every scored
	// row counted exactly once cluster-wide, every handler hit equal to
	// driver entries plus observed forwards, and no forward ever failed.
	var sumRows, sumReqs, sumFwd, sumFwdErr float64
	for _, r := range reps {
		_, scrape := get(t, "http://"+r.addr+"/metrics")
		sumRows += scrapeValue(t, scrape, "saco_rows_scored_total")
		sumReqs += scrapeValue(t, scrape, "saco_requests_total")
		sumFwd += scrapeValue(t, scrape, "saco_forwards_total")
		sumFwdErr += scrapeValue(t, scrape, "saco_forward_errors_total")
	}
	if sumFwdErr != 0 {
		t.Fatalf("%v forwards failed", sumFwdErr)
	}
	if want := float64(rows200.Load()); sumRows != want {
		t.Fatalf("cluster scored %v rows, driver ledger says %v", sumRows, want)
	}
	if want := float64(predicts.Load()) + sumFwd; sumReqs != want {
		t.Fatalf("cluster saw %v predict hits, driver sent %v + %v forwards", sumReqs, float64(predicts.Load()), sumFwd)
	}
	if sumFwd == 0 {
		t.Fatal("three replicas and four models but no forwards — routing never engaged")
	}
}

// TestClusterRebalance: a membership change pushed to every replica
// moves ownership — the leaver drops its models, the stayers pick them
// up — and every model keeps answering through any entry replica.
func TestClusterRebalance(t *testing.T) {
	root := t.TempDir()
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	const features = 40
	for i, name := range names {
		w, err := OpenRegistry(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Publish(testModel(KindLasso, features, 7, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	reps := startCluster(t, root, 3)
	probeCols, probeVals := randRows(rand.New(rand.NewSource(5)), 1, features)
	probe := libsvmBody(probeCols, probeVals)

	waitServing := func(entries []*clusterReplica) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for _, r := range entries {
			for _, name := range names {
				for {
					status, _ := post(t, "http://"+r.addr+"/predict?model="+name, "text/plain", probe)
					if status == http.StatusOK {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("replica %s never served %s", r.addr, name)
					}
					time.Sleep(10 * time.Millisecond)
				}
			}
		}
	}
	waitServing(reps)

	// Shrink the cluster to the first two replicas, telling all three
	// (the leaver must drop its slice and start forwarding).
	newMembers := fmt.Sprintf(`{"members":[%q,%q]}`, reps[0].addr, reps[1].addr)
	for _, r := range reps {
		status, body := post(t, "http://"+r.addr+"/cluster/members", "application/json", []byte(newMembers))
		if status != http.StatusOK {
			t.Fatalf("members update on %s: %d %s", r.addr, status, body)
		}
	}
	if owned := reps[2].c.Owned(); len(owned) != 0 {
		t.Fatalf("leaver still owns %v after rebalance", owned)
	}
	stayersOwn := len(reps[0].c.Owned()) + len(reps[1].c.Owned())
	if stayersOwn != len(names) {
		t.Fatalf("stayers own %d models, want %d", stayersOwn, len(names))
	}
	// Every model still answers — including through the leaver, which
	// now forwards everything.
	waitServing(reps)
}
