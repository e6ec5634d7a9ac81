package server

import (
	"context"
	"time"

	"indexedrec/ir"
)

// The worker role. A coordinator (internal/cluster) cuts a compiled plan's
// shard domain with ir.Plan.Partition and scatters the slices here; each
// worker compiles — or cache-loads, since the request carries the same
// structure the fingerprint hashes — the plan and executes its slice with
// ir.Plan.SolveShardCtx. Shard solves go through the same admission pool,
// deadlines, and load-shedding as whole solves, so a worker that also takes
// direct traffic degrades both honestly rather than either silently.

// solveShard is the shard endpoint's end of the shared pipeline (see
// request.go): decode → Plan → SolveShardCtx. A grid2d band is a
// self-contained sub-grid, so it replays whole and echoes its row range.
func (s *Server) solveShard(body []byte) (func(ctx context.Context) (any, error), int, error) {
	req, sh, err := s.limits.DecodeShard(body)
	if err != nil {
		return nil, 0, err
	}
	return func(ctx context.Context) (any, error) {
		start := time.Now()
		p, err := req.Plan(ctx, s.plans)
		if err != nil {
			return nil, err
		}
		if req.Family == ir.FamilyGrid2D {
			sol, err := p.SolveCtx(ctx, req.Data)
			if err != nil {
				return nil, err
			}
			return shardResponse(&ir.ShardSolution{Shard: sh, Values: sol.Values}, start), nil
		}
		part, err := p.SolveShardCtx(ctx, req.Data, sh)
		if err != nil {
			return nil, err
		}
		return shardResponse(part, start), nil
	}, req.TimeoutMs, nil
}

// shardResponse packs a shard solution for the wire.
func shardResponse(part *ir.ShardSolution, start time.Time) ShardResponse {
	return ShardResponse{
		Shard:       ShardWire{Lo: part.Shard.Lo, Hi: part.Shard.Hi},
		Cells:       part.Cells,
		ValuesInt:   part.ValuesInt,
		ValuesFloat: part.ValuesFloat,
		Values:      part.Values,
		ElapsedMs:   ms(start),
	}
}
