package cluster

import (
	"sort"
	"time"
)

// Elastic membership. The fleet is a map of members that changes at
// runtime: static members come from Config.Workers and live for the
// coordinator's lifetime with probe-governed liveness, dynamic members
// self-register over POST /v1/cluster/register and stay only while their
// heartbeat lease is renewed. A missed lease marks the worker dead and
// removes it from the fleet (its structures re-home to the next rendezvous
// rank on the very next solve); a graceful drain deregisters explicitly,
// so SIGTERM'd workers leave without waiting out a lease. Every membership
// or liveness change bumps ircluster_rebalances_total — rendezvous hashing
// guarantees the change only re-homes the structures the departed (or
// arrived) worker owns, so survivors keep their plan/arena affinity.

// member returns the worker registered under name, or nil.
func (co *Coordinator) member(name string) *worker {
	co.mmu.RLock()
	defer co.mmu.RUnlock()
	return co.members[name]
}

// memberList snapshots the fleet sorted by name (stable view output).
func (co *Coordinator) memberList() []*worker {
	co.mmu.RLock()
	ws := make([]*worker, 0, len(co.members))
	for _, w := range co.members {
		ws = append(ws, w)
	}
	co.mmu.RUnlock()
	sort.Slice(ws, func(i, j int) bool { return ws[i].name < ws[j].name })
	return ws
}

// alive snapshots the currently-up members.
func (co *Coordinator) alive() []*worker {
	co.mmu.RLock()
	defer co.mmu.RUnlock()
	var ws []*worker
	for _, w := range co.members {
		if w.isUp() {
			ws = append(ws, w)
		}
	}
	return ws
}

// addMember inserts w if no member with its name exists, returning the
// resident member either way.
func (co *Coordinator) addMember(w *worker) (*worker, bool) {
	co.mmu.Lock()
	defer co.mmu.Unlock()
	if cur, ok := co.members[w.name]; ok {
		return cur, false
	}
	co.members[w.name] = w
	return w, true
}

// register admits (or refreshes) a dynamic member and returns its lease
// duration. Re-registration of a live member is a plain lease renewal;
// registration of a dead or unknown name is a membership change that
// re-ranks placement. Membership is checked before any worker is built, so
// a renewal never constructs a throwaway client or resets the resident
// member's breaker gauge (which may legitimately read open).
func (co *Coordinator) register(addr, version string) time.Duration {
	co.mmu.Lock()
	cur, resident := co.members[addr]
	if !resident {
		base := addr
		if !hasScheme(base) {
			base = "http://" + base
		}
		cur = co.newWorker(addr, base, true)
		co.members[addr] = cur
	}
	co.mmu.Unlock()

	cur.mu.Lock()
	wasUp := cur.up
	cur.up = true
	cur.lease = time.Now().Add(co.cfg.LeaseTTL)
	cur.dynamic = true
	if version != "" {
		cur.version = version
	}
	cur.mu.Unlock()
	co.metrics.workerUp.Set(1, cur.name)
	if !resident {
		co.cfg.Logger.Printf("ircluster: worker %s registered (version %s)", cur.name, orUnknown(version))
		co.fleetChanged()
	} else if !wasUp {
		co.cfg.Logger.Printf("ircluster: worker %s re-registered", cur.name)
		co.fleetChanged()
	}
	return co.cfg.LeaseTTL
}

// renew extends a registered member's lease, reporting false for unknown
// names (the worker should re-register).
func (co *Coordinator) renew(addr string) bool {
	w := co.member(addr)
	if w == nil {
		return false
	}
	w.mu.Lock()
	wasUp := w.up
	w.up = true
	w.lease = time.Now().Add(co.cfg.LeaseTTL)
	w.mu.Unlock()
	if !wasUp {
		co.metrics.workerUp.Set(1, addr)
		co.cfg.Logger.Printf("ircluster: worker %s back up (heartbeat)", addr)
		co.fleetChanged()
	}
	return true
}

// deregister removes a member on graceful drain. Static members are only
// marked down (their probe may resurrect them); dynamic ones leave the
// fleet entirely.
func (co *Coordinator) deregister(addr string) {
	w := co.member(addr)
	if w == nil {
		return
	}
	w.mu.Lock()
	dynamic := w.dynamic
	w.up = false
	w.mu.Unlock()
	co.metrics.workerUp.Set(0, addr)
	if dynamic {
		co.mmu.Lock()
		delete(co.members, addr)
		co.mmu.Unlock()
	}
	co.cfg.Logger.Printf("ircluster: worker %s deregistered (drain)", addr)
	co.fleetChanged()
}

// expireLeases removes dynamic members whose lease has lapsed — the
// missed-heartbeat failure detector. Returns how many members died.
func (co *Coordinator) expireLeases(now time.Time) int {
	var dead []*worker
	co.mmu.Lock()
	for name, w := range co.members {
		w.mu.Lock()
		expired := w.dynamic && now.After(w.lease)
		w.mu.Unlock()
		if expired {
			delete(co.members, name)
			dead = append(dead, w)
		}
	}
	co.mmu.Unlock()
	for _, w := range dead {
		co.metrics.workerUp.Set(0, w.name)
		co.cfg.Logger.Printf("ircluster: worker %s dead (missed lease)", w.name)
	}
	if len(dead) > 0 {
		co.fleetChanged()
	}
	return len(dead)
}

// leaseLoop runs the missed-lease detector at a fraction of the lease TTL
// until Close.
func (co *Coordinator) leaseLoop() {
	defer close(co.leaseDone)
	tick := co.cfg.LeaseTTL / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-co.probeCtx.Done():
			return
		case <-t.C:
			co.expireLeases(time.Now())
		}
	}
}

// fleetChanged records a membership/liveness transition: placement is
// re-ranked (rendezvous hashing moves only the affected worker's structures)
// and the members gauge refreshed.
func (co *Coordinator) fleetChanged() {
	co.metrics.rebalances.Inc()
	co.mmu.RLock()
	n := int64(len(co.members))
	co.mmu.RUnlock()
	co.metrics.members.Set(n)
}

func orUnknown(s string) string {
	if s == "" {
		return "(unknown)"
	}
	return s
}
