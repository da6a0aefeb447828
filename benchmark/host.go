package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/iso"
	"repro/internal/order"
)

// hostInfo records where a result was measured, so a run starved by a
// shared host can be told apart from a regression.
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	// Commit is the git commit of the working directory, or "none" when it
	// is not a git checkout; SourceDigest hashes the Go sources either way.
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
}

func readHost(seed int64) hostInfo {
	return hostInfo{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		Seed:         seed,
		Commit:       gitCommit(),
		SourceDigest: sourceDigest("."),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from .git without running git.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "none"
}

// sourceDigest is a SHA-256 over the path and content of every .go file
// and go.mod under root, skipping hidden directories.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write([]byte{0})
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// resetPeakRSS restarts the kernel's count of the process's peak resident
// set, so that the next read covers one timed section only; when the
// kernel refuses, the peak covers the whole process.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // best effort, see above
}

// peakRSSMiB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// usageSnapshot is the process and host counters at one instant.
type usageSnapshot struct {
	at           time.Time
	cpu          time.Duration
	steal, total uint64
	gcCPU, cpus  float64
	sched        *metrics.Float64Histogram
	iso          iso.SearchStats
	keys         int64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func takeSnapshot() usageSnapshot {
	s := usageSnapshot{at: time.Now(), iso: iso.Stats(), keys: order.KeysComputed()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.steal, s.total = procStat()
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.cpus = samples[1].Value.Float64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64Histogram {
		s.sched = samples[2].Value.Float64Histogram()
	}
	return s
}

// procStat returns the host's steal and total CPU ticks from /proc/stat.
func procStat() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := bytes.Fields(sc.Bytes())
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user and nice.
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(string(f), 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// startSection collects the heap and returns its free pages to the
// kernel, so that every section starts from the same resident set
// whatever set-up left behind, then resets the peak resident set and
// snapshots the counters the section's usage is measured against.
func startSection() usageSnapshot {
	debug.FreeOSMemory()
	resetPeakRSS()
	return takeSnapshot()
}

// usage is the process's resource use between two snapshots.
type usage struct {
	wall            time.Duration
	cpu             time.Duration
	peakRSS         float64 // MiB, since startSection
	gcCPU, totalCPU float64
	schedP99        float64 // seconds
	steal, ticks    uint64
	iso             iso.SearchStats
	keys            int64
}

func (u usage) stealShare() float64 { return ratio(float64(u.steal), float64(u.ticks)) }

// usageSince is the use from a snapshot until now.
func usageSince(a usageSnapshot) usage {
	b := takeSnapshot()
	u := usage{
		wall:     b.at.Sub(a.at),
		cpu:      b.cpu - a.cpu,
		gcCPU:    b.gcCPU - a.gcCPU,
		totalCPU: b.cpus - a.cpus,
		steal:    b.steal - a.steal,
		ticks:    b.total - a.total,
		iso:      b.iso.Sub(a.iso),
		keys:     b.keys - a.keys,
		peakRSS:  peakRSSMiB(),
	}
	if a.sched != nil && b.sched != nil && len(a.sched.Counts) == len(b.sched.Counts) {
		u.schedP99 = histQuantile(a.sched, b.sched, 0.99)
	}
	return u
}

// histQuantile is the q-quantile of the difference of two snapshots of one
// runtime/metrics histogram, read as the upper bound of its bucket.
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var n uint64
	diff := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		diff[i] = b.Counts[i] - a.Counts[i]
		n += diff[i]
	}
	if n == 0 {
		return 0
	}
	rank := uint64(q * float64(n))
	var seen uint64
	for i, c := range diff {
		seen += c
		if seen > rank {
			upper := b.Buckets[i+1]
			if upper > 1e300 {
				upper = b.Buckets[i]
			}
			return upper
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// contention is the whole invocation's record: process CPU against wall
// time, and the host's steal time.
type contention struct {
	CPUSeconds  float64 `json:"cpu_s"`
	WallSeconds float64 `json:"wall_s"`
	StealTicks  uint64  `json:"steal_ticks"`
	StealShare  float64 `json:"steal_share"`
}

func contentionBetween(a, b usageSnapshot) contention {
	return contention{
		CPUSeconds:  (b.cpu - a.cpu).Seconds(),
		WallSeconds: b.at.Sub(a.at).Seconds(),
		StealTicks:  b.steal - a.steal,
		StealShare:  ratio(float64(b.steal-a.steal), float64(b.total-a.total)),
	}
}
