package serve

import (
	"runtime"

	"saco/internal/stream"
)

// LoadMode selects how a model file is materialized in memory.
type LoadMode int

const (
	// LoadCopy reads the file into the heap (the historical path).
	LoadCopy LoadMode = iota
	// LoadMmap maps the file read-only and aliases the value payload in
	// place — the model's Val slice points straight into the page cache,
	// so loading an N-nonzero model copies the indices but not the
	// floats, and repeated replicas on one host share the pages. Where
	// the file cannot be mapped or the values cannot be aliased
	// (unsupported platform, big-endian host) the load silently copies
	// instead; correctness is identical either way, only residency
	// differs.
	LoadMmap
)

// String names the mode for flags and logs.
func (m LoadMode) String() string {
	if m == LoadMmap {
		return "mmap"
	}
	return "copy"
}

// LoadModelFileMode is LoadModelFile with an explicit materialization
// mode. Both modes run the one decoder (decodeModel), so the mmap path
// verifies exactly what the copy path verifies before trusting a byte
// of the mapping.
func LoadModelFileMode(path string, mode LoadMode) (*Model, error) {
	if mode != LoadMmap {
		return LoadModelFile(path)
	}
	data, err := stream.MapFile(path)
	if err != nil {
		return LoadModelFile(path)
	}
	m, aliased, err := decodeModel(data, true)
	if !aliased {
		// Rejected, empty, or copied out on an unaliasable platform:
		// nothing references the mapping.
		stream.UnmapFile(data) //nolint:errcheck // the verdict on the model stands either way
		return m, err
	}
	// The model's Val slice aliases the mapping: unmap only once the
	// model itself is unreachable. The registry hands models to readers
	// by pointer, so reachability is exactly liveness of the last
	// in-flight reader.
	runtime.AddCleanup(m, func(d []byte) {
		stream.UnmapFile(d) //nolint:errcheck // process teardown reclaims the mapping regardless
	}, data)
	return m, nil
}
