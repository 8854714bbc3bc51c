package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// substrate names the field arithmetic under internal/bn254. It changes
// by hand in the change that retires math/big.
const substrate = "math/big"

// hostInfo is recorded with every result: the facts without which two
// numbers cannot be compared.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GoOS       string `json:"go_os"`
	GoArch     string `json:"go_arch"`
	Commit     string `json:"commit"`
	Substrate  string `json:"substrate"`
}

func readHost() hostInfo {
	return hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		Commit: gitCommit("."), Substrate: substrate,
	}
}

// gitCommit resolves HEAD by reading .git directly (go run does not stamp
// VCS info, and the benchmark starts no processes). "unknown" outside a
// git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head)) // detached HEAD
	}
	if sha, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, ok := strings.CutSuffix(line, " "+ref); ok {
				return sha
			}
		}
	}
	return "unknown"
}

// cpuTime is the process's user+system CPU time so far: the whole fleet
// plus the load generator, which is constant across commits.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is the heap still reachable after a forced collection, in
// MiB: the fleet's key material, pairing tables, caches and connection
// buffers, without the garbage headroom that makes peak RSS jump by a
// fifth from run to run. Two collections, so sync.Pool victims go too.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark, in
// MiB; 0 where /proc is absent.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
