package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// manifest records the host and run a result came from, so numbers from
// another machine or revision are recognisable as such.
type manifest struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"git_revision"`
	Dirty      bool    `json:"git_dirty"`
}

func newManifest(o options) manifest {
	m := manifest{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		CPUModel: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: "unknown",
	}
	if rev, err := git("rev-parse", "HEAD"); err == nil {
		m.Revision = rev
		status, err := git("status", "--porcelain", "--untracked-files=no")
		m.Dirty = err != nil || status != ""
	}
	return m
}

// git runs a git query in the working directory without letting git look
// for a repository above it.
func git(args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	out, err := cmd.Output()
	return strings.TrimSpace(string(out)), err
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or runtime's
// architecture where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
