package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// provenance records where a report came from. The commit comes from
// the version-control stamp Go writes into the binary; a checkout that
// is not a repository has none, so the digest of the Go sources it was
// built from identifies the code instead.
func provenance(w workload, seed uint64, in *inputs, srv *server) map[string]any {
	commit, modified, tags := "unknown", "", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value
			case "-tags":
				tags = s.Value
			}
		}
	}
	spec := w.graphSpec()
	spec["vertices"], spec["directed_edges"] = in.base.NumVertices(), in.base.NumEdges()
	return map[string]any{
		"workload":       w.name,
		"seed":           seed,
		"commit":         commit,
		"commit_dirty":   modified,
		"source_sha256":  sourceDigest("."),
		"go_version":     runtime.Version(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"num_cpu":        runtime.NumCPU(),
		"build_tags":     tags,
		"graph":          spec,
		"batch_kernels":  w.kernels,
		"batch_source":   in.src,
		"server":         srv.cfg,
		"serve_schedule": w.serve.describe(),
	}
}

func (s serveSpec) describe() map[string]any {
	return map[string]any{
		"mix": "45% /sssp, 45% /wbfs, 10% /coreness", "pool_skew": "u^1.5", "pool": poolSize, "connections": maxConns,
		"low_rate": s.low, "high_rate": s.high, "rounds": serveRounds,
		"requests": map[string]int{"warm": warmN, "low": lowN, "high": highN, "jobs": jobPhaseN}, "rung_seconds": rungSeconds,
		"setcover_jobs": jobsN, "ladder_rates": ladderRates(s.high), "p90_limit_ms": s.limitMs,
	}
}

func ladderRates(high float64) []float64 {
	out := make([]float64, len(ladderMults))
	for i, m := range ladderMults {
		out[i] = m * high
	}
	return out
}

// sourceDigest hashes every go.mod and .go file under root, skipping
// hidden directories such as the build directory.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (d.Name() == "go.mod" || strings.HasSuffix(p, ".go")) {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
