package cluster

import (
	"hash/fnv"
	"sort"
)

// Rendezvous (highest-random-weight) hashing ranks the whole fleet for each
// plan fingerprint. The top-ranked live worker takes every solve of that
// structure — and every session opened on it — so its fingerprint-keyed
// plan cache stays hot; on failure the next rank takes over, which doubles
// as the failover path for dead workers. Different structures hash
// independently, which spreads the fleet's load across workers, and a
// membership change moves only the structures that ranked the departed or
// arrived worker first.

// rankWorkers orders ws by descending rendezvous score for fingerprint.
// The slice is freshly allocated; callers may consume it destructively.
func rankWorkers(ws []*worker, fingerprint string) []*worker {
	type scored struct {
		w *worker
		s uint64
	}
	key := []byte(fingerprint + "@")
	ranked := make([]scored, len(ws))
	for i, w := range ws {
		h := fnv.New64a()
		_, _ = h.Write(key)
		_, _ = h.Write([]byte(w.name))
		ranked[i] = scored{w: w, s: h.Sum64()}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].s != ranked[j].s {
			return ranked[i].s > ranked[j].s
		}
		return ranked[i].w.name < ranked[j].w.name
	})
	out := make([]*worker, len(ranked))
	for i, r := range ranked {
		out[i] = r.w
	}
	return out
}
