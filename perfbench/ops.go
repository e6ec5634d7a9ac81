package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"indexedrec/internal/grid2d"
	"indexedrec/internal/moebius"
	"indexedrec/internal/server"
	"indexedrec/internal/server/client"
	"indexedrec/ir"
)

// op is one prepared request: its input, the oracle's answer, and the
// outside replays of each layer it passes through.
type op interface {
	// do runs the op once: one client.Solve* call through c, or one ir
	// library call when c is nil. It is the timed part.
	do(ctx context.Context, c *client.Client) (reply any, err error)
	// check compares a reply with the oracle answer bit for bit.
	check(reply any) bool
	// replay times each layer on the op's own input and reply.
	replay(ctx context.Context, reply any, ls *layerSample) error
}

// serverProcs is the per-solve goroutine budget irserved derives from its
// defaults (Workers = GOMAXPROCS/2, Procs = GOMAXPROCS/Workers); replays use
// it so they solve as the server does.
func serverProcs() int {
	workers := max(1, runtime.GOMAXPROCS(0)/2)
	return max(1, runtime.GOMAXPROCS(0)/workers)
}

// serverMaxExponentBits is irserved's default general-family exponent cap,
// part of the general plan fingerprint.
const serverMaxExponentBits = 16384

// lazyPlan holds the benchmark's own plan for warm replays.
type lazyPlan struct {
	once sync.Once
	p    *ir.Plan
}

// get returns the held plan, adopting fresh the first time.
func (l *lazyPlan) get(fresh *ir.Plan) *ir.Plan {
	l.once.Do(func() { l.p = fresh })
	return l.p
}

// codecReplay times the server's reply encode and the client's decode of
// those bytes into into.
func codecReplay(reply, into any, ls *layerSample) error {
	var buf bytes.Buffer
	var err error
	ls.serverEncode = timeMs(func() { err = json.NewEncoder(&buf).Encode(reply) })
	if err != nil {
		return err
	}
	ls.clientDecode = timeMs(func() { err = json.Unmarshal(buf.Bytes(), into) })
	return err
}

// requestReplay times the client's encode of req and the server's decode of
// those bytes into into.
func requestReplay(req, into any, ls *layerSample) error {
	var body []byte
	var err error
	ls.clientEncode = timeMs(func() { body, err = json.Marshal(req) })
	if err != nil {
		return err
	}
	ls.serverDecode = timeMs(func() { err = json.Unmarshal(body, into) })
	return err
}

// systemOp is an ordinary or general solve over an integer operator, dense
// or sparse encoded.
type systemOp struct {
	family ir.Family
	ord    *server.OrdinaryRequest // family ordinary
	gen    *server.GeneralRequest  // family general
	want   []int64
	fresh  bool // structure never sent before: the server compiles it
	plan   lazyPlan
}

func newSystemOp(family ir.Family, w ir.SystemWire, opName string, mod int64, init []int64, want []int64, fresh bool) (*systemOp, error) {
	raw, err := json.Marshal(init)
	if err != nil {
		return nil, err
	}
	o := &systemOp{family: family, want: want, fresh: fresh}
	if family == ir.FamilyGeneral {
		o.gen = &server.GeneralRequest{System: w, Op: opName, Mod: mod, Init: raw}
	} else {
		o.ord = &server.OrdinaryRequest{System: w, Op: opName, Mod: mod, Init: raw}
	}
	return o, nil
}

func (o *systemOp) do(ctx context.Context, c *client.Client) (any, error) {
	if o.gen != nil {
		return c.SolveGeneral(ctx, *o.gen)
	}
	return c.SolveOrdinary(ctx, *o.ord)
}

func (o *systemOp) check(reply any) bool {
	switch r := reply.(type) {
	case *server.OrdinaryResponse:
		return slices.Equal(r.ValuesInt, o.want)
	case *server.GeneralResponse:
		return slices.Equal(r.ValuesInt, o.want)
	}
	return false
}

func (o *systemOp) replay(ctx context.Context, reply any, ls *layerSample) error {
	ls.missed = o.fresh
	var w ir.SystemWire
	var raw json.RawMessage
	var opName string
	var mod int64
	bits := 0
	if o.gen != nil {
		var r server.GeneralRequest
		if err := requestReplay(o.gen, &r, ls); err != nil {
			return err
		}
		w, raw, opName, mod, bits = r.System, r.Init, r.Op, r.Mod, serverMaxExponentBits
	} else {
		var r server.OrdinaryRequest
		if err := requestReplay(o.ord, &r, ls); err != nil {
			return err
		}
		w, raw, opName, mod = r.System, r.Init, r.Op, r.Mod
	}
	var init []int64
	var err error
	ls.initDecode = timeMs(func() { init, err = server.DecodeInitInt(raw) })
	if err != nil {
		return err
	}
	iop, err := ir.IntOpByName(opName, mod)
	if err != nil || iop == nil {
		return fmt.Errorf("op %q: not an integer operator (%v)", opName, err)
	}
	copt := ir.CompileOptions{Family: o.family, Procs: serverProcs(), MaxExponentBits: bits}
	var p *ir.Plan
	if w.IsSparse() {
		var sp *ir.SparseSystem
		ls.validate = timeMs(func() { sp, err = w.Sparse() })
		if err != nil {
			return err
		}
		ls.fingerprint = timeMs(func() { _ = ir.SparseFingerprint(o.family, sp, bits) })
		ls.compile = timeMs(func() { p, err = ir.CompileSparseCtx(ctx, sp, copt) })
	} else {
		var sys *ir.System
		ls.validate = timeMs(func() { sys, err = w.System() })
		if err != nil {
			return err
		}
		ls.fingerprint = timeMs(func() { _ = ir.PlanFingerprint(o.family, sys.N, sys.M, sys.G, sys.F, sys.H, bits) })
		ls.compile = timeMs(func() { p, err = ir.CompileCtx(ctx, sys, copt) })
	}
	if err != nil {
		return err
	}
	p = o.plan.get(p)
	sopt := ir.SolveOptions{Procs: serverProcs(), MaxExponentBits: bits}
	if o.gen != nil {
		ls.solve = timeMs(func() { _, err = ir.SolveGeneralPlanCtx[int64](ctx, p, iop, init, sopt) })
		if err != nil {
			return err
		}
		return codecReplay(reply, &server.GeneralResponse{}, ls)
	}
	ls.solve = timeMs(func() { _, err = ir.SolveOrdinaryPlanCtx[int64](ctx, p, iop, init, sopt) })
	if err != nil {
		return err
	}
	return codecReplay(reply, &server.OrdinaryResponse{}, ls)
}

// linearOp is an affine recurrence, served through the coalescer.
type linearOp struct {
	req   server.LinearRequest
	want  []float64
	fresh bool
	plan  lazyPlan
}

func (o *linearOp) do(ctx context.Context, c *client.Client) (any, error) {
	return c.SolveLinear(ctx, o.req)
}

func (o *linearOp) check(reply any) bool {
	r, ok := reply.(*server.MoebiusResponse)
	return ok && sameBits(r.Values, o.want)
}

func (o *linearOp) replay(ctx context.Context, reply any, ls *layerSample) error {
	ls.missed = o.fresh
	var r server.LinearRequest
	if err := requestReplay(o.req, &r, ls); err != nil {
		return err
	}
	var ms *moebius.MoebiusSystem
	var err error
	ls.validate = timeMs(func() {
		ms = moebius.NewLinear(r.M, r.G, r.F, r.A, r.B)
		if err = ms.Validate(); err == nil {
			err = ms.CheckFinite()
		}
	})
	if err != nil {
		return err
	}
	ls.fingerprint = timeMs(func() { _ = ir.PlanFingerprint(ir.FamilyMoebius, len(ms.G), ms.M, ms.G, ms.F, nil, 0) })
	var p *ir.Plan
	ls.compile = timeMs(func() { p, err = ir.CompileMoebiusCtx(ctx, ms.M, ms.G, ms.F) })
	if err != nil {
		return err
	}
	p = o.plan.get(p)
	ls.solve = timeMs(func() {
		_, err = ir.SolveMoebiusPlanCtx(ctx, p, ms.A, ms.B, ms.C, ms.D, r.X0, ir.SolveOptions{Procs: serverProcs()})
	})
	if err != nil {
		return err
	}
	return codecReplay(reply, &server.MoebiusResponse{}, ls)
}

// gridOp is a 2-D grid solve through irserved.
type gridOp struct {
	req  server.Grid2DRequest
	want []float64
	plan lazyPlan
}

func (o *gridOp) do(ctx context.Context, c *client.Client) (any, error) {
	return c.SolveGrid2D(ctx, o.req)
}

func (o *gridOp) check(reply any) bool {
	r, ok := reply.(*server.Grid2DResponse)
	return ok && sameBits(r.Values, o.want)
}

func (o *gridOp) replay(ctx context.Context, reply any, ls *layerSample) error {
	var r server.Grid2DRequest
	if err := requestReplay(o.req, &r, ls); err != nil {
		return err
	}
	p, err := gridIR(ctx, &r.System, ls)
	if err != nil {
		return err
	}
	p = o.plan.get(p)
	ls.solve = timeMs(func() { _, err = ir.SolveGrid2DPlanCtx(ctx, p, &r.System, ir.SolveOptions{Procs: serverProcs()}) })
	if err != nil {
		return err
	}
	return codecReplay(reply, &server.Grid2DResponse{}, ls)
}

// gridIR times the ir layer's validate, fingerprint and compile of a grid
// and returns the compiled plan.
func gridIR(ctx context.Context, sys *ir.Grid2DSystem, ls *layerSample) (*ir.Plan, error) {
	var err error
	ls.validate = timeMs(func() { err = sys.Validate() })
	if err != nil {
		return nil, err
	}
	ls.fingerprint = timeMs(func() { _, err = ir.Grid2DFingerprint(sys) })
	if err != nil {
		return nil, err
	}
	var p *ir.Plan
	ls.compile = timeMs(func() { p, err = ir.CompileGrid2DCtx(ctx, sys) })
	return p, err
}

// libGridOp is an in-process ir.SolveGrid2DPlanCtx call on a warm plan.
type libGridOp struct {
	sys   *ir.Grid2DSystem
	plan  *ir.Plan
	want  []float64
	inner *grid2d.System
	gplan *grid2d.Plan // the engine's own plan, for grid2d.solve_ms
}

func (o *libGridOp) do(ctx context.Context, _ *client.Client) (any, error) {
	return ir.SolveGrid2DPlanCtx(ctx, o.plan, o.sys, ir.SolveOptions{})
}

func (o *libGridOp) check(reply any) bool {
	r, ok := reply.(*ir.Grid2DResult)
	return ok && sameBits(r.Values, o.want)
}

func (o *libGridOp) replay(ctx context.Context, _ any, ls *layerSample) error {
	if _, err := gridIR(ctx, o.sys, ls); err != nil {
		return err
	}
	// The op itself is the warm ir solve.
	ls.solve = msOf(ls.lat)
	var res *grid2d.Result
	var err error
	ls.gridSolve = timeMs(func() { res, err = o.gplan.SolveCtx(ctx, o.inner, runtime.GOMAXPROCS(0)) })
	if err != nil {
		return err
	}
	ls.gridOracle = timeMs(func() { _, err = grid2d.SolveSequential(o.inner) })
	if err != nil {
		return err
	}
	ls.gridRounds, ls.gridCells = res.Rounds, res.Cells
	ls.gridBytes = gridBytesMoved(o.inner)
	return nil
}

// gridBytesMoved is the computed (not measured) memory traffic of one grid
// solve: per interior cell, one 8-byte read of each coefficient grid
// present, reads of its three neighbours and one write.
func gridBytesMoved(s *grid2d.System) float64 {
	terms := 0
	for _, g := range [][]float64{s.A, s.B, s.D, s.C} {
		if g != nil {
			terms++
		}
	}
	return float64(s.Rows) * float64(s.Cols) * 8 * float64(terms+3+1)
}

// sameBits compares float slices bit for bit.
func sameBits(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}
