package mpi

import "context"

// bg is the background context shared by tests that never cancel.
var bg = context.Background()

// transports enumerates the Transport implementations the collective
// tests run against: the in-process simulated world and the loopback TCP
// mesh. The collectives are written once against Comm, so both must
// execute identical message DAGs and deliver identical results.
var transports = []struct {
	name string
	opt  WorldOptions
}{
	{"sim", WorldOptions{}},
	{"tcp", WorldOptions{TCP: &TCPOptions{}}},
}
