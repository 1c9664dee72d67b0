package server

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ringVnodes is how many virtual nodes each worker contributes to the
// consistent-hash ring. 64 points per worker keeps the assignment spread
// within a few percent of even for small fleets while staying cheap to
// rebuild on membership change.
const ringVnodes = 64

// ring is a consistent-hash ring over worker IDs. Run keys hash onto the
// ring and are owned by the first virtual node clockwise; adding or
// removing one worker only moves the keys adjacent to its points, so a
// membership change re-shards O(1/N) of a grid instead of all of it.
//
// Ownership is an affinity policy, not a correctness property: any worker
// may execute any unit (records are deterministic), and stealable units —
// expired leases, evicted owners — are granted to whichever worker polls
// first. The ring only decides who is offered a unit first.
type ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	id   string
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// buildRing constructs the ring for the given worker IDs. Deterministic in
// the ID set: two coordinators with the same membership agree on ownership.
func buildRing(ids []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(ids)*ringVnodes)}
	for _, id := range ids {
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(id + "#" + strconv.Itoa(v)), id: id})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].id < r.points[j].id
	})
	return r
}

// owner returns the worker owning key, or "" on an empty ring.
func (r *ring) owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].id
}
