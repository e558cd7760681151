package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// machine is the record of where and how a run was made; every output
// carries it, so a number is never read without its box.
type machine struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"git_commit"`
	Kernel       string  `json:"kernel"`
	Clients      int     `json:"clients"`
	PoolPages    int     `json:"pool_pages"`
	FlushPolicy  string  `json:"flush_policy"`
	FsyncFloorNs float64 `json:"wal.fsync_floor_ns"` // set by a traced run
}

func describeMachine() machine {
	m := machine{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Commit:      "unknown",
		Kernel:      "unknown",
		Clients:     clientsPerWorkload,
		PoolPages:   1024,
		FlushPolicy: "engine default: fsync per commit group, automatic checkpoint at 8 MiB of WAL",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	// A checkout that is not a git repository records "unknown".
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}
