package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"inferturbo/internal/tensor"
)

// median returns the middle of xs (mean of the two middles for even counts),
// 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(int(math.Ceil(p*float64(len(s))))-1, 0)]
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// seconds and millis convert a duration sample set to float units.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// cpuTime is the process's user+system CPU time so far — the paper's
// resource cost when differenced around a pass.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is ru_maxrss of this process (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// totalAlloc is the cumulative heap bytes allocated by the process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// logitsCRC fingerprints a logits matrix by its IEEE-754 bit patterns.
func logitsCRC(m *tensor.Matrix) uint32 {
	return crc32.Checksum(logitsBytes(m), crc32.MakeTable(crc32.Castagnoli))
}

// logitsBytes is the little-endian float32 dump /v1/logits serves.
func logitsBytes(m *tensor.Matrix) []byte {
	buf := make([]byte, 4*len(m.Data))
	for i, f := range m.Data {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(f))
	}
	return buf
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate times a fixed integer-hash loop that touches no repo code: the
// same instructions every time, so its wall time varies only with the host.
// It feeds no metric; a noisy run shows in its own header.
func calibrate() time.Duration {
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 8_000_000; i++ {
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 29
		x += uint64(i)
	}
	calibSink = x
	return time.Since(start)
}

// hostHeader describes the machine the run saw, so a noisy run is visible in
// its own log.
func hostHeader() string {
	load := "n/a"
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 3 {
			load = strings.Join(f[:3], " ")
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s loadavg=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), load)
}
