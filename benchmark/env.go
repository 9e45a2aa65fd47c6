package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// environment describes the box a full run was made on. Only the full
// report gathers it: a single-workload run for the driver reads nothing
// outside its checkout.
type environment struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	CPUModel   string   `json:"cpu_model"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Caches     []string `json:"caches"`
}

func gatherEnvironment(root string) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*") // absent on some kernels: no caches listed
	for _, d := range dirs {
		read := func(name string) string {
			data, err := os.ReadFile(filepath.Join(d, name))
			if err != nil {
				return "?"
			}
			return strings.TrimSpace(string(data))
		}
		env.Caches = append(env.Caches, fmt.Sprintf("L%s %s %s", read("level"), read("type"), read("size")))
	}
	return env
}

// loadAverage returns the 1-minute load average, or -1 when unreadable.
func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return -1
	}
	return v
}
