package server

import (
	"bytes"
	"encoding/json"

	"npudvfs/internal/core"
	"npudvfs/internal/ga"
	"npudvfs/internal/traceio"
)

// buildResponse packages a completed search: the strategy in its wire
// form plus model-predicted deltas against the fixed-maximum baseline,
// read from ev, the evaluator the GA scored individuals on — so the
// reported numbers are exactly what the search optimized, with no
// second table build and no extra simulation runs on the serving path.
// fingerprint is the trace digest the submission was keyed under.
func buildResponse(workloadName, fingerprint string, spec traceio.SearchSpec,
	ev *core.Evaluator, gaRes *ga.Result) (*traceio.StrategyResponse, error) {

	strat := ev.Strategy(gaRes.Best)
	var pretty bytes.Buffer
	if err := traceio.WriteStrategy(&pretty, strat); err != nil {
		return nil, err
	}
	// Store the strategy compacted: the HTTP layer re-indents embedded
	// RawMessages when encoding responses, so compact bytes are the
	// stable canonical form the determinism contract is stated over.
	var buf bytes.Buffer
	if err := json.Compact(&buf, pretty.Bytes()); err != nil {
		return nil, err
	}

	baselineInd := make([]int, ev.Genes())
	for i := range baselineInd {
		baselineInd[i] = ev.BaselineIndex()
	}
	basePred, err := ev.Predict(baselineInd)
	if err != nil {
		return nil, err
	}
	bestPred, err := ev.Predict(gaRes.Best)
	if err != nil {
		return nil, err
	}

	return &traceio.StrategyResponse{
		Workload:    workloadName,
		Fingerprint: fingerprint,
		Strategy:    json.RawMessage(buf.Bytes()),
		Search:      spec,
		Stages:      ev.Genes(),
		Switches:    strat.Switches(),
		Evaluations: gaRes.Evaluations,
		BestScore:   gaRes.BestScore,
		Predicted: traceio.PredictedDeltas{
			BaselineTimeMicros: basePred.TimeMicros,
			TimeMicros:         bestPred.TimeMicros,
			BaselineSoCWatts:   basePred.SoCWatts,
			SoCWatts:           bestPred.SoCWatts,
			BaselineCoreWatts:  basePred.CoreWatts,
			CoreWatts:          bestPred.CoreWatts,
			PerfLossPct:        100 * (float64(bestPred.TimeMicros)/float64(basePred.TimeMicros) - 1),
			SoCSavingPct:       100 * (1 - float64(bestPred.SoCWatts)/float64(basePred.SoCWatts)),
			CoreSavingPct:      100 * (1 - float64(bestPred.CoreWatts)/float64(basePred.CoreWatts)),
		},
	}, nil
}
