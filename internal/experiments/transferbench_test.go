package experiments

import "testing"

// TestTransferBenchQuick runs the transfer bench in quick mode and checks the
// result is internally consistent: positive throughputs, a recorded
// bulk-vs-scalar ratio, and ordered fetch percentiles.
func TestTransferBenchQuick(t *testing.T) {
	res, err := RunTransferBench(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.PayloadBytes <= 0 || res.Tokens <= 0 {
		t.Fatalf("payload not recorded: %+v", res)
	}
	for name, v := range map[string]float64{
		"marshal":          res.MarshalMBps,
		"unmarshal":        res.UnmarshalMBps,
		"scalar marshal":   res.ScalarMarshalMBps,
		"scalar unmarshal": res.ScalarUnmarshMBps,
		"stream decode":    res.StreamDecodeMBps,
		"fetch":            res.FetchMBps,
	} {
		if v <= 0 {
			t.Errorf("%s MB/s not positive: %f", name, v)
		}
	}
	if res.BulkUnmarshalSpeedup <= 0 {
		t.Errorf("bulk unmarshal speedup not recorded: %f", res.BulkUnmarshalSpeedup)
	}
	if res.FetchP50Ms <= 0 || res.FetchP99Ms < res.FetchP50Ms {
		t.Errorf("fetch percentiles inconsistent: p50=%f p99=%f", res.FetchP50Ms, res.FetchP99Ms)
	}
	// The registered artifact renders the same measurements as a table.
	runQuick(t, "transferbench")
}
