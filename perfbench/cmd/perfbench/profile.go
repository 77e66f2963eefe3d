package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// selfTime is each function's flat (self) CPU time in a profile, in ns.
type selfTime map[string]int64

// addProfile adds the self time of the CPU profile at path to st, as
// `go tool pprof -top` reports it: one row per function, inlined calls
// counted on the inlined function.
func (st selfTime) addProfile(path string) error {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-unit=ns", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof %s: %v: %s", path, err, bytes.TrimSpace(stderr.Bytes()))
	}
	return st.addTop(out)
}

// addTop parses `pprof -top -unit=ns` rows: flat flat% sum% cum cum% name,
// after the "flat  flat%" header line.
func (st selfTime) addTop(out []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(out))
	rows := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !rows {
			rows = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			return fmt.Errorf("pprof row %q", sc.Text())
		}
		ns, err := strconv.ParseInt(strings.TrimSuffix(f[0], "ns"), 10, 64)
		if err != nil {
			return fmt.Errorf("pprof row %q: %v", sc.Text(), err)
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		st[name] += ns
	}
	if !rows {
		return fmt.Errorf("pprof printed no table: %q", out)
	}
	return sc.Err()
}

// funcPackage returns the import path of a profiled function name such as
// "repro/internal/core.(*GAM).pickIdle" → "repro/internal/core".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuLayer maps an import path to the per-layer share it counts toward:
// the simulator's own packages by their internal/<pkg> name, the Go
// runtime, and text encoding (fmt, strconv, encoding/*). Other standard
// library packages count toward no layer.
func cpuLayer(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		return name
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "fmt", pkg == "strconv", strings.HasPrefix(pkg, "encoding/"):
		return "encoding"
	}
	return ""
}

// shares folds self time into the cpu_share.<layer> metrics, each a share
// of all profiled CPU time.
func (st selfTime) shares() map[string]float64 {
	var total int64
	by := map[string]int64{}
	for fn, ns := range st {
		total += ns
		if l := cpuLayer(funcPackage(fn)); l != "" {
			by[l] += ns
		}
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		if total > 0 {
			out["cpu_share."+l] = float64(by[l]) / float64(total)
		} else {
			out["cpu_share."+l] = 0
		}
	}
	return out
}
