package server

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"indexedrec/internal/core"
	"indexedrec/internal/moebius"
	"indexedrec/ir"
)

// The solve pipeline every role shares: decode → plan → solve → respond.
// A wire body decodes (under a role's Limits) into one Request — the paper's
// split of a solve into structure (g, f, h, compiled once into a plan) and
// data (op and init, replayed) — whatever its family or encoding. irserved
// replays the plan; ircoord decodes the same body (so an invalid one gets
// the same answer from both roles), routes it whole to a worker by
// Request.Fingerprint, and only replays the plan itself when no worker
// answers. Both roles resolve the plan through Request.Plan and shape the
// answer through Request.Response, so a body means the same thing to every
// role.

// Limits are the bounds a role applies while decoding a request. MaxN
// bounds iterations, touched cells and grid cells; Procs is the per-solve
// goroutine budget that client-requested procs are clamped to;
// MaxExponentBits caps general-family CAP exponents (requests may lower it
// but not raise it).
type Limits struct {
	MaxN, Procs, MaxExponentBits int
}

// Request is one decoded, validated solve. Exactly one family's structure
// is set: System (ordinary/general, with Sparse for the compressed
// encoding), M/G/F (Möbius) or Grid (grid2d). Data holds the replay data,
// with procs already clamped.
type Request struct {
	// Family is the solver family: ordinary, general, moebius or grid2d.
	Family ir.Family
	// System is the dense system the plan compiles from (ordinary and
	// general). For a sparse request it aliases Sparse.Compact.
	System *ir.System
	// Sparse is set for a sparse-encoded request on the compact fast path:
	// the plan compiles from it, and init and values are in compact order.
	Sparse *ir.SparseSystem
	// M, G, F are the Möbius family's structure.
	M    int
	G, F []int
	// Grid is the grid2d family's system (Data.Grid aliases it).
	Grid *ir.Grid2DSystem
	// Bits is the effective MaxExponentBits of a general solve, part of its
	// compiled plan and fingerprint; 0 for the other families.
	Bits int
	// Data is what the plan replays: op and init, Möbius coefficients and
	// x0, or the grid, plus the solve options.
	Data ir.PlanData
	// TimeoutMs is the client's requested deadline (0 = role default).
	TimeoutMs int

	// expanded holds a sparse request that decoded to its dense expansion
	// because the sparse fast path was off: System and Data are then dense,
	// and Response gathers the touched cells back into compact order.
	expanded *ir.SparseSystem
}

// unmarshal decodes a wire body, reporting failures as client errors.
func unmarshal(body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	return nil
}

// clampProcs resolves a client-requested procs count against the per-solve
// budget.
func (l Limits) clampProcs(req int) int {
	if req <= 0 || req > l.Procs {
		return l.Procs
	}
	return req
}

// request starts a Request of family fam from the wire options: procs
// clamped, general-family exponent bits resolved, deadline recorded.
func (l Limits) request(fam ir.Family, ow ir.OptionsWire) (*Request, error) {
	opt, err := ow.Options()
	if err != nil {
		return nil, err
	}
	opt.Procs = l.clampProcs(opt.Procs)
	r := &Request{Family: fam, TimeoutMs: ow.TimeoutMs}
	if fam == ir.FamilyGeneral {
		r.Bits = l.exponentBits(ow)
		opt.MaxExponentBits = r.Bits
	}
	r.Data.Opts = opt
	return r, nil
}

// exponentBits resolves a general solve's MaxExponentBits: the client's
// value when it lowers the role's cap, the cap otherwise.
func (l Limits) exponentBits(ow ir.OptionsWire) int {
	if b := ow.MaxExponentBits; b > 0 && b < l.MaxExponentBits {
		return b
	}
	return l.MaxExponentBits
}

// DecodeOrdinary decodes a POST /v1/solve/ordinary body. A sparse-encoded
// system decodes to its dense expansion when the sparse fast path is off.
func (l Limits) DecodeOrdinary(body []byte) (*Request, error) {
	var w OrdinaryRequest
	if err := unmarshal(body, &w); err != nil {
		return nil, err
	}
	return l.system(ir.FamilyOrdinary, w.System, w.Op, w.Mod, w.Init, w.Opts, true)
}

// DecodeGeneral decodes a POST /v1/solve/general body (see DecodeOrdinary).
func (l Limits) DecodeGeneral(body []byte) (*Request, error) {
	var w GeneralRequest
	if err := unmarshal(body, &w); err != nil {
		return nil, err
	}
	r, err := l.system(ir.FamilyGeneral, w.System, w.Op, w.Mod, w.Init, w.Opts, true)
	if err != nil {
		return nil, err
	}
	r.Data.WithPowers = w.WithPowers
	return r, nil
}

// DecodeLinear decodes a POST /v1/solve/linear body into the Möbius
// family's affine form (c = 0, d = 1), applying the extended rewrite
// b'[i] = x0[g[i]] + b[i] when asked.
func (l Limits) DecodeLinear(body []byte) (*Request, error) {
	var w LinearRequest
	if err := unmarshal(body, &w); err != nil {
		return nil, err
	}
	if w.Extended && len(w.X0) != w.M {
		return nil, fmt.Errorf("extended form: len(x0) = %d, want m = %d", len(w.X0), w.M)
	}
	ms := moebius.NewLinear(w.M, w.G, w.F, w.A, w.B)
	return l.moebius(ms, w.X0, w.Opts, w.Extended)
}

// DecodeMoebius decodes a POST /v1/solve/moebius body.
func (l Limits) DecodeMoebius(body []byte) (*Request, error) {
	var w MoebiusRequest
	if err := unmarshal(body, &w); err != nil {
		return nil, err
	}
	ms := &moebius.MoebiusSystem{M: w.M, G: w.G, F: w.F, A: w.A, B: w.B, C: w.C, D: w.D}
	return l.moebius(ms, w.X0, w.Opts, false)
}

// DecodeGrid2D decodes a POST /v1/solve/grid2d body.
func (l Limits) DecodeGrid2D(body []byte) (*Request, error) {
	var w Grid2DRequest
	if err := unmarshal(body, &w); err != nil {
		return nil, err
	}
	return l.grid(&w.System, w.Opts)
}

// system decodes an ordinary/general structure (dense or sparse) with its
// operator and init array. mayExpand routes a sparse system through its
// dense expansion when the sparse fast path is off.
func (l Limits) system(fam ir.Family, w ir.SystemWire, op string, mod int64, init json.RawMessage, ow ir.OptionsWire, mayExpand bool) (*Request, error) {
	if w.N > l.MaxN || len(w.G) > l.MaxN || len(w.Cells) > l.MaxN {
		return nil, fmt.Errorf("n = %d exceeds the server limit %d", max(w.N, len(w.G), len(w.Cells)), l.MaxN)
	}
	r, err := l.request(fam, ow)
	if err != nil {
		return nil, err
	}
	// Defects of a sparse encoding, wrong init length included, are
	// semantic (ErrInvalidSparse, 422); dense ones are plain bad requests.
	invalid, want := ir.ErrInvalidSystem, "m"
	if w.IsSparse() {
		if r.Sparse, err = w.Sparse(); err != nil {
			return nil, err
		}
		r.System, invalid, want = r.Sparse.Compact, ir.ErrInvalidSparse, "touched-cell count"
	} else if r.System, err = w.System(); err != nil {
		return nil, err
	}
	if fam == ir.FamilyOrdinary && !r.System.Ordinary() {
		return nil, fmt.Errorf("%w: the ordinary family requires H = G (use /v1/solve/general)", invalid)
	}
	r.Data.Op, r.Data.Mod = op, mod
	if err := decodeOpInit(&r.Data, init); err != nil {
		return nil, err
	}
	// A compact system's M is its touched-cell count.
	if got := max(len(r.Data.InitInt), len(r.Data.InitFloat)); got != r.System.M {
		return nil, fmt.Errorf("%w: len(init) = %d, want %s %d", invalid, got, want, r.System.M)
	}
	if mayExpand && r.Sparse != nil && !ir.SparseEnabled() {
		if err := r.expand(l.MaxN); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// decodeOpInit resolves data.Op's value domain and decodes raw into the
// matching init array.
func decodeOpInit(data *ir.PlanData, raw json.RawMessage) error {
	iop, err := ir.IntOpByName(data.Op, data.Mod)
	if err != nil {
		return err
	}
	if iop != nil {
		data.InitInt, err = DecodeInitInt(raw)
		return err
	}
	fop, err := ir.FloatOpByName(data.Op)
	if err != nil {
		return err
	}
	if fop == nil {
		return fmt.Errorf("unknown op %q (one of %s)", data.Op, strings.Join(ir.OpNames(), ", "))
	}
	data.InitFloat, err = DecodeInitFloat(raw)
	return err
}

// expand swaps a sparse request for its dense expansion (the kill-switch
// fallback), bit-identical once Response gathers the touched cells back.
// Expanding materializes the global array, so its size must fit maxN.
func (r *Request) expand(maxN int) error {
	sp := r.Sparse
	if sp.M > maxN {
		return fmt.Errorf("global m = %d exceeds the server limit %d while the sparse fast path is disabled", sp.M, maxN)
	}
	var err error
	if r.Data.InitInt != nil {
		r.Data.InitInt, err = core.ExpandInit(sp, r.Data.InitInt)
	} else {
		r.Data.InitFloat, err = core.ExpandInit(sp, r.Data.InitFloat)
	}
	r.System, r.Sparse, r.expanded = sp.Dense(), nil, sp
	return err
}

// moebius validates a Möbius-family system and its initial values, first
// applying the extended rewrite when asked.
func (l Limits) moebius(ms *moebius.MoebiusSystem, x0 []float64, ow ir.OptionsWire, extended bool) (*Request, error) {
	if len(ms.G) > l.MaxN {
		return nil, fmt.Errorf("n = %d exceeds the server limit %d", len(ms.G), l.MaxN)
	}
	if err := ms.Validate(); err != nil {
		return nil, err
	}
	if len(x0) != ms.M {
		return nil, fmt.Errorf("len(x0) = %d, want m = %d", len(x0), ms.M)
	}
	if extended {
		for i, g := range ms.G {
			ms.B[i] += x0[g]
		}
	}
	if err := ms.CheckFinite(); err != nil {
		return nil, err
	}
	for i, v := range x0 {
		if v != v || v > maxFinite || v < -maxFinite {
			return nil, fmt.Errorf("x0[%d] = %v is not finite", i, v)
		}
	}
	r, err := l.request(ir.FamilyMoebius, ow)
	if err != nil {
		return nil, err
	}
	r.M, r.G, r.F = ms.M, ms.G, ms.F
	r.Data.A, r.Data.B, r.Data.C, r.Data.D, r.Data.X0 = ms.A, ms.B, ms.C, ms.D, x0
	return r, nil
}

const maxFinite = 1.7976931348623157e308

// grid bounds and validates a grid system. Each side is bounded before the
// product, so no rows×cols overflow can slip under the limit.
func (l Limits) grid(g *ir.Grid2DSystem, ow ir.OptionsWire) (*Request, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: grid2d request missing grid", ir.ErrInvalidSystem)
	}
	if g.Rows > l.MaxN || g.Cols > l.MaxN || g.Rows*g.Cols > l.MaxN {
		return nil, fmt.Errorf("grid %dx%d exceeds the server limit %d cells", g.Rows, g.Cols, l.MaxN)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	r, err := l.request(ir.FamilyGrid2D, ow)
	if err != nil {
		return nil, err
	}
	r.Grid, r.Data.Grid = g, g
	return r, nil
}

// Fingerprint returns the key of the request's compiled plan, by family
// and encoding: dense, sparse, Möbius or grid. It keys the plan cache and
// ircoord's routing of the solve (and of a session opened on the same
// structure).
func (r *Request) Fingerprint() (string, error) {
	switch {
	case r.Family == ir.FamilyMoebius:
		return ir.PlanFingerprint(ir.FamilyMoebius, len(r.G), r.M, r.G, r.F, nil, 0), nil
	case r.Family == ir.FamilyGrid2D:
		return ir.Grid2DFingerprint(r.Grid)
	case r.Sparse != nil:
		return ir.SparseFingerprint(r.Family, r.Sparse, r.Bits), nil
	}
	// Keyed exactly as CompileCtx fingerprints: ordinary plans ignore H.
	s, h := r.System, r.System.H
	if r.Family == ir.FamilyOrdinary {
		h = nil
	}
	return ir.PlanFingerprint(r.Family, s.N, s.M, s.G, s.F, h, r.Bits), nil
}

// Plan resolves the request's compiled plan through c (nil compiles every
// time), keyed by Fingerprint.
func (r *Request) Plan(ctx context.Context, c *PlanCache) (*ir.Plan, error) {
	fp, err := r.Fingerprint()
	if err != nil {
		return nil, err
	}
	copt := ir.CompileOptions{Family: r.Family, Procs: r.Data.Opts.Procs, MaxExponentBits: r.Bits}
	return PlanFor(c, ctx, fp, func(ctx context.Context) (*ir.Plan, error) {
		switch {
		case r.Family == ir.FamilyMoebius:
			return ir.CompileMoebiusCtx(ctx, r.M, r.G, r.F)
		case r.Family == ir.FamilyGrid2D:
			return ir.CompileGrid2DCtx(ctx, r.Grid)
		case r.Sparse != nil:
			return ir.CompileSparseCtx(ctx, r.Sparse, copt)
		}
		return ir.CompileCtx(ctx, r.System, copt)
	})
}

// Response shapes a whole-plan solution of the request into its endpoint's
// wire response. Sparse requests answer in compact order with the
// touched-cell list echoed and power traces naming global cells.
func (r *Request) Response(sol *ir.PlanSolution, elapsed time.Duration) (any, error) {
	elapsedMs := float64(elapsed.Microseconds()) / 1000
	switch r.Family {
	case ir.FamilyMoebius:
		return MoebiusResponse{Values: sol.Values, ElapsedMs: elapsedMs}, nil
	case ir.FamilyGrid2D:
		return Grid2DResponse{Values: sol.Values, Rounds: sol.Rounds,
			Cells: int64(r.Grid.Rows) * int64(r.Grid.Cols), ElapsedMs: elapsedMs}, nil
	}
	var cells []int
	switch {
	case r.Sparse != nil:
		cells = r.Sparse.Cells
		for _, terms := range sol.Powers {
			for k := range terms {
				terms[k].Cell = cells[terms[k].Cell]
			}
		}
	case r.expanded != nil:
		cells = r.expanded.Cells
		if err := gather(r.expanded, sol); err != nil {
			return nil, err
		}
	}
	if r.Family == ir.FamilyGeneral {
		return GeneralResponse{ValuesInt: sol.ValuesInt, ValuesFloat: sol.ValuesFloat, Cells: cells,
			Powers: sol.Powers, CAPRounds: sol.CAPRounds, ElapsedMs: elapsedMs}, nil
	}
	return OrdinaryResponse{ValuesInt: sol.ValuesInt, ValuesFloat: sol.ValuesFloat, Cells: cells,
		Rounds: sol.Rounds, Combines: sol.Combines, ElapsedMs: elapsedMs}, nil
}

// gather reads a dense-fallback solution back into compact order.
func gather(sp *ir.SparseSystem, sol *ir.PlanSolution) (err error) {
	if sol.ValuesInt != nil {
		sol.ValuesInt, err = core.GatherTouched(sp, sol.ValuesInt)
	} else {
		sol.ValuesFloat, err = core.GatherTouched(sp, sol.ValuesFloat)
	}
	if err == nil && sol.Powers != nil {
		sol.Powers, err = core.GatherTouched(sp, sol.Powers)
	}
	return err
}
