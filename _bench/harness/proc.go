package harness

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// CPUSeconds returns the user+system CPU time this process has consumed.
func CPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procStatusField returns one "Key:\tvalue" line of /proc/self/status.
func procStatusField(key string) (string, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("harness: no %s in /proc/self/status", key)
}

// PeakRSSMB returns the process's resident-set high-water mark (VmHWM) in
// megabytes.
func PeakRSSMB() (float64, error) {
	v, err := procStatusField("VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("harness: VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}

// ResetPeakRSS resets the kernel's high-water mark of this process's resident
// set to its current size (Linux: writing 5 to /proc/self/clear_refs), so
// that PeakRSSMB afterwards reports the peak since this call. Where that is
// not permitted the mark stays process-wide and the error says so.
func ResetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// Machine is the metadata a number needs before it can be compared with
// another: where it was measured and on how many cores.
type Machine struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// TensorWorkers is tensor.Workers(), the kernel and engine-pool width.
	TensorWorkers int `json:"tensor_workers"`
	// Commit is the source revision, when the caller knows it.
	Commit string `json:"commit,omitempty"`
}

// ThisMachine fills in everything but TensorWorkers and Commit.
func ThisMachine() Machine {
	m := Machine{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				m.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return m
}
