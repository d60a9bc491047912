package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// environment is recorded with every result so two result files can
// be told apart by more than their numbers.
type environment struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

func readEnvironment() environment {
	return environment{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
	}
}

// pinProcs fixes the scheduler width every run uses: one goroutine
// steps a single machine; the fleet is one VM driver plus one load
// generator.
func pinProcs() { runtime.GOMAXPROCS(min(2, runtime.NumCPU())) }

// procField returns the value of the first "key : value" line of a
// /proc file, "" when the file or the key is missing (not Linux).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// rssPeakMB is the process's peak resident set (VmHWM), 0 where /proc
// does not offer it.
func rssPeakMB() float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1e3
}
