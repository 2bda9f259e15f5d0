package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"ebcp/internal/core"
	"ebcp/internal/ebcperr"
	"ebcp/internal/metrics"
	"ebcp/internal/prefetch"
	"ebcp/internal/trace"
	"ebcp/internal/workload"
)

// scaleConfig scales the windows down with the lane count so every lane
// count costs roughly the same wall clock.
func scaleConfig(b workload.Params, lanes int) Config {
	cfg := DefaultConfig()
	cfg.Core.OnChipCPI = b.OnChipCPI
	cfg.WarmInsts = 400_000 / uint64(lanes)
	cfg.MeasureInsts = 600_000 / uint64(lanes)
	return cfg
}

// exhaustConfig is the short-window configuration of the 64-lane
// exhaustion cases.
func exhaustConfig(b workload.Params) Config {
	cfg := DefaultConfig()
	cfg.Core.OnChipCPI = b.OnChipCPI
	cfg.WarmInsts, cfg.MeasureInsts = 20_000, 20_000
	return cfg
}

// smallEBCP builds a fresh small-table EBCP (prefetcher state is shared
// and mutable, so each run needs its own instance).
func smallEBCP(t *testing.T, cores int) prefetch.Prefetcher {
	t.Helper()
	ecfg := core.DefaultConfig()
	ecfg.TableEntries = 1 << 16
	ecfg.Cores = cores
	pf, err := core.New(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

// reportBytes renders the per-core snapshots through the report encoder —
// the exact bytes a JSON report would carry.
func reportBytes(t *testing.T, res CMPResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, pc := range res.PerCore {
		if err := metrics.WriteJSON(&buf, pc.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// cmpGoldens pins RunCMP's report bytes. The scale rows run every Table 1
// workload at 1-16 lanes under scaleConfig with a small-table EBCP; the
// exhaustion rows run 64 Database lanes under exhaustConfig with no
// prefetching, lane 17's trace cut to cut records. The digests were
// produced by the conservative run-ahead engine this loop replaced, whose
// inline and goroutine-per-lane modes agreed on every row.
var cmpGoldens = []struct {
	workload string
	lanes    int
	exhaust  bool   // 64-lane exhaustion case (exhaustConfig, no prefetching)
	cut      uint64 // records lane 17's trace is cut to (0: whole trace)
	warm0    bool   // WarmInsts = 0
	short    bool   // RunCMP must report ErrShortTrace with the partial result
	sha256   string // of reportBytes
}{
	{"Database", 1, false, 0, false, false, "3f394fcc5c6fb1be45c2847906cc632492a150d00156b64004b63f7534281cc2"},
	{"Database", 2, false, 0, false, false, "c605ea457e5d34f7649ebaa1d8ddaa7e19a8d6666f131099fde5e03657a69e58"},
	{"Database", 4, false, 0, false, false, "16809d5be4ee9ed3c8363f9e72a287c217c54d9ca60348a1d391372ce09c5933"},
	{"Database", 8, false, 0, false, false, "34eea1613189e566fd87a7a495d8d62b94e2dc9d5061932218806e464e4d6af0"},
	{"Database", 16, false, 0, false, false, "2e92d60622c009275b278111b432cbee7babf4bfa12ad8abbef3b042acbfa742"},
	{"TPC-W", 1, false, 0, false, false, "5cd159ddd69fd842ac91dd4f7544a63fdaf7cbb70b54595daa2330cfa927e5c4"},
	{"TPC-W", 2, false, 0, false, false, "8d897ed682a1e963f885c597964a30c96736ab0e8ec73cd6349cd8829b43a2fa"},
	{"TPC-W", 4, false, 0, false, false, "bc2b26caf2fa5d81ff259bd224b4f9b491cdaa216950fb643be04759d3483c0a"},
	{"TPC-W", 8, false, 0, false, false, "5d3cc7eb099ad0ac3b84a3b2afd17db9adca791a70c3eaf7c5bb0107d69476db"},
	{"TPC-W", 16, false, 0, false, false, "cbe4b99738df79d540cdd44ddc62068dfbee1ec944a8fb2c1b9e2c0196f5177d"},
	{"SPECjbb2005", 1, false, 0, false, false, "9797497705636c6999df82afc5b483fff799e0370a1980472cdda2de2856fa8b"},
	{"SPECjbb2005", 2, false, 0, false, false, "1eec039eda784da1dd4d2edcb79b102b9cdb83d039b4370e0a139876441afd8e"},
	{"SPECjbb2005", 4, false, 0, false, false, "513f7ddf5e8153548cf7621be3babb4a031873a727d2c3cde4d86fbe593a551e"},
	{"SPECjbb2005", 8, false, 0, false, false, "6bed9426c79cc381ae2ee34c2dba0595c4c4ed9a5ef4a81208566950a51950c4"},
	{"SPECjbb2005", 16, false, 0, false, false, "67b0a800a73b7ab088ae4e7ad983d6bc2368a86a7bbbaf79ba5266d8efa2c7f6"},
	{"SPECjAppServer2004", 1, false, 0, false, false, "65d6fb27bd59fbff54ad2cd5b6817a56d9c6a18a5ac809d62ebfba15c0a083b9"},
	{"SPECjAppServer2004", 2, false, 0, false, false, "41853ab896e03ea0048cff552fa78c22156a7425def420c05427d2baf8b3d5cc"},
	{"SPECjAppServer2004", 4, false, 0, false, false, "eb67db0aa21209cae6984feabff4d2e2b479729a1e488aabad01cdf1e067b05a"},
	{"SPECjAppServer2004", 8, false, 0, false, false, "1e4b7f7fb8bda2fa93ba9b7dcea82dbc3b0fbf6fcf7210a72a1549676c61a107"},
	{"SPECjAppServer2004", 16, false, 0, false, false, "761156a2533d6413f5d9ba0bed39668fd484e64f50feccbdf4308f99ded68cc2"},
	{"Database", 64, true, 1_000, false, true, "71473df0f13fe443610c3db409371895a72b19a6ff7f28301cb7aebfc37fed82"},
	{"Database", 64, true, 60_000, false, false, "36701549b63d949783f6651eca5a743795ce4b9d49a2869d9146e0fe5e4e3082"},
	{"Database", 64, true, 0, true, false, "87b3e8a75811311661908c888f1440fa8ed6c7efc58cb0a479a22fa9a5d713d4"},
	{"Database", 64, true, 1_000, true, false, "4c4a9b15c5a116d07394e3a908cf3ff72db0ca3dd380c9685247d37ca514c261"},
}

// TestCMPGoldenDigests locks RunCMP to the committed digests: for every
// row the report bytes (WarmupIncomplete flags included) and whether a
// short-trace error comes back must match. The -short variant keeps the
// 2- and 8-lane scale rows and every exhaustion row.
func TestCMPGoldenDigests(t *testing.T) {
	for _, g := range cmpGoldens {
		name := fmt.Sprintf("%s/%dlanes", g.workload, g.lanes)
		if g.exhaust {
			name = fmt.Sprintf("exhaust/cut%d/warm0=%v", g.cut, g.warm0)
		}
		t.Run(name, func(t *testing.T) {
			if testing.Short() && !g.exhaust && g.lanes != 2 && g.lanes != 8 {
				t.Skip("full grid runs without -short")
			}
			b, err := workload.ByName(g.workload)
			if err != nil {
				t.Fatal(err)
			}
			cfg, pf := scaleConfig(b, g.lanes), smallEBCP(t, g.lanes)
			if g.exhaust {
				cfg, pf = exhaustConfig(b), prefetch.None{}
			}
			if g.warm0 {
				cfg.WarmInsts = 0
			}
			srcs := cmpSources(b, g.lanes)
			if g.cut > 0 {
				srcs[17] = trace.NewLimit(srcs[17], g.cut)
			}
			res, err := RunCMP(srcs, pf, cfg)
			var cste *CMPShortTraceError
			switch {
			case g.short && !errors.As(err, &cste):
				t.Fatalf("err = %v, want a *CMPShortTraceError", err)
			case !g.short && err != nil:
				t.Fatal(err)
			}
			sum := sha256.Sum256(reportBytes(t, res))
			if got := hex.EncodeToString(sum[:]); got != g.sha256 {
				t.Errorf("report digest %s, want %s", got, g.sha256)
			}
		})
	}
}

// TestCMPLaneExhaustionTerminates checks the WarmupIncomplete contract
// at full width: one of 64 lanes exhausting mid-warmup must terminate
// the run with every lane flagged, and a lane exhausting mid-measurement
// must retire cleanly.
func TestCMPLaneExhaustionTerminates(t *testing.T) {
	b, err := workload.ByName("Database")
	if err != nil {
		t.Fatal(err)
	}
	const lanes = 64
	cfg := exhaustConfig(b)

	// Lane 17 dies inside its warmup window.
	srcs := cmpSources(b, lanes)
	srcs[17] = trace.NewLimit(srcs[17], 1_000)
	res, err := RunCMP(srcs, prefetch.None{}, cfg)
	if !errors.Is(err, ebcperr.ErrShortTrace) {
		t.Fatalf("short lane: err = %v, want ErrShortTrace", err)
	}
	var cste *CMPShortTraceError
	if !errors.As(err, &cste) {
		t.Fatalf("short lane error %T does not carry the partial result", err)
	}
	for i, pc := range res.PerCore {
		if !pc.WarmupIncomplete {
			t.Errorf("lane %d: WarmupIncomplete must be set when any lane's source is short", i)
		}
	}

	// A lane exhausting after it warmed (mid-measurement) is a valid,
	// just truncated, run: the grid completes without the flag.
	srcs = cmpSources(b, lanes)
	srcs[17] = trace.NewLimit(srcs[17], 60_000)
	ok, err := RunCMP(srcs, prefetch.None{}, cfg)
	if err != nil {
		t.Fatalf("mid-measurement exhaustion must not fail the run: %v", err)
	}
	for i, pc := range ok.PerCore {
		if pc.WarmupIncomplete {
			t.Errorf("lane %d: WarmupIncomplete must be clear when all lanes warm", i)
		}
	}
}
