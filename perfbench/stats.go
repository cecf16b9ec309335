package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rtSample is a snapshot of the Go runtime's allocation and GC counters.
type rtSample struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU                              float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
	}
}

// delta is the counter growth from a to b.
func (a rtSample) delta(b rtSample) rtSample {
	return rtSample{
		allocBytes:   b.allocBytes - a.allocBytes,
		allocObjects: b.allocObjects - a.allocObjects,
		gcCycles:     b.gcCycles - a.gcCycles,
		gcCPU:        b.gcCPU - a.gcCPU,
	}
}

// rssPeakBytes reads the process's resident-set high-water mark (VmHWM).
func rssPeakBytes() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb * 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// envStamp identifies the machine and code a result came from, so
// numbers from different machines are never compared.
type envStamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func stamp() envStamp {
	e := envStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Source:     sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// sourceDigest hashes the Go sources and module files under root (the
// checkout the benchmark runs from), so a result names the code it
// measured even where the checkout carries no version-control metadata.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
