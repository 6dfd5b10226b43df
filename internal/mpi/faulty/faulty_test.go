package faulty_test

import (
	"errors"
	"os"
	"testing"
	"time"

	"saco/internal/mpi"
	"saco/internal/mpi/faulty"
)

// body is a tiny SPMD program with enough traffic to aim faults at:
// iterated allreduces of a one-word buffer.
func body(iters int) func(c *mpi.Comm) error {
	return func(c *mpi.Comm) error {
		buf := []float64{float64(c.Rank() + 1)}
		for i := 0; i < iters; i++ {
			if err := c.Allreduce(mpi.Sum, buf); err != nil {
				return err
			}
		}
		return nil
	}
}

func TestCleanPlanCountsOps(t *testing.T) {
	in := faulty.New(faulty.Plan{Rank: 1})
	_, err := mpi.RunWorld(nil, 4, mpi.CrayXC30(), mpi.WorldOptions{Wrap: in.Wrap}, body(10))
	if err != nil {
		t.Fatalf("clean plan perturbed the run: %v", err)
	}
	if in.Fired() {
		t.Fatal("clean plan fired")
	}
	if in.Sends() == 0 || in.Recvs() == 0 {
		t.Fatalf("no traffic observed: sends=%d recvs=%d", in.Sends(), in.Recvs())
	}
}

func TestKillAtSendFailsWorldRecoverably(t *testing.T) {
	// Calibrate, then kill rank 1 halfway through its sends.
	cal := faulty.New(faulty.Plan{Rank: 1})
	if _, err := mpi.RunWorld(nil, 4, mpi.CrayXC30(), mpi.WorldOptions{Wrap: cal.Wrap}, body(10)); err != nil {
		t.Fatal(err)
	}
	in := faulty.New(faulty.Plan{Rank: 1, KillAtSend: int(cal.Sends() / 2)})
	_, err := mpi.RunWorld(nil, 4, mpi.CrayXC30(), mpi.WorldOptions{Wrap: in.Wrap}, body(10))
	if err == nil {
		t.Fatal("killed world succeeded")
	}
	if !errors.Is(err, mpi.ErrPeerGone) {
		t.Fatalf("kill error %v does not classify as a vanished peer", err)
	}
	if !in.Fired() {
		t.Fatal("kill never fired")
	}
	// One-shot: a re-run of the same world with the same injector must
	// complete — the restarted rank does not die again.
	if _, err := mpi.RunWorld(nil, 4, mpi.CrayXC30(), mpi.WorldOptions{Wrap: in.Wrap}, body(10)); err != nil {
		t.Fatalf("second attempt still faulted: %v", err)
	}
}

func TestKillAtRecvOverTCP(t *testing.T) {
	in := faulty.New(faulty.Plan{Rank: 2, KillAtRecv: 3})
	_, err := mpi.RunWorld(nil, 3, mpi.CrayXC30(),
		mpi.WorldOptions{Wrap: in.Wrap, TCP: &mpi.TCPOptions{RecvTimeout: 2 * time.Second}}, body(10))
	if err == nil {
		t.Fatal("killed world succeeded")
	}
	if !errors.Is(err, mpi.ErrPeerGone) {
		t.Fatalf("kill error %v does not classify as a vanished peer", err)
	}
}

func TestDropAtSendTripsPeerDeadline(t *testing.T) {
	// A dropped frame is only detectable on transports with receive
	// deadlines; over TCP the starved peer times out.
	in := faulty.New(faulty.Plan{Rank: 1, DropAtSend: 2})
	_, err := mpi.RunWorld(nil, 2, mpi.CrayXC30(),
		mpi.WorldOptions{Wrap: in.Wrap, TCP: &mpi.TCPOptions{RecvTimeout: 500 * time.Millisecond}}, body(8))
	if err == nil {
		t.Fatal("a dropped frame went unnoticed")
	}
	var pe *mpi.PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("drop surfaced as %v, want a *PeerError", err)
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) && !errors.Is(err, mpi.ErrTagMismatch) {
		t.Fatalf("drop surfaced as %v, want a deadline or tag error", err)
	}
}

func TestDelayAtRecvIsBenign(t *testing.T) {
	// A straggler changes wall time only: the run still completes and
	// the modeled stats are untouched (virtual clocks ignore sleeps).
	ref, err := mpi.RunWorld(nil, 3, mpi.CrayXC30(), mpi.WorldOptions{}, body(5))
	if err != nil {
		t.Fatal(err)
	}
	in := faulty.New(faulty.Plan{Rank: 1, DelayAtRecv: 2, Delay: 50 * time.Millisecond})
	got, err := mpi.RunWorld(nil, 3, mpi.CrayXC30(), mpi.WorldOptions{Wrap: in.Wrap}, body(5))
	if err != nil {
		t.Fatalf("delayed world failed: %v", err)
	}
	if !in.Fired() {
		t.Fatal("delay never fired")
	}
	for r := range ref.PerRank {
		if got.PerRank[r] != ref.PerRank[r] {
			t.Fatalf("rank %d modeled stats changed under delay:\n got %+v\nwant %+v",
				r, got.PerRank[r], ref.PerRank[r])
		}
	}
}
