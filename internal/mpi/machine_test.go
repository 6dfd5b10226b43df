package mpi

import (
	"strings"
	"testing"
)

// TestMachineByName: the three flag values map onto their presets and
// anything else is an error that lists them.
func TestMachineByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Machine
	}{
		{"cray", CrayXC30()},
		{"ethernet", EthernetCluster()},
		{"spark", SparkLike()},
	} {
		got, err := MachineByName(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("MachineByName(%q) = %+v, %v; want %+v", tc.name, got, err, tc.want)
		}
	}
	for _, name := range []string{"", "abacus", "Cray", "cray-xc30", "zero"} {
		_, err := MachineByName(name)
		if err == nil {
			t.Errorf("MachineByName(%q) accepted", name)
			continue
		}
		if want := `unknown machine "` + name + `" (cray, ethernet, spark)`; !strings.Contains(err.Error(), want) {
			t.Errorf("MachineByName(%q): error %q, want %q", name, err, want)
		}
	}
}
