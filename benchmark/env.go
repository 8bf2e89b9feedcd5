package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// environment is what two result files must share before their wall-time
// numbers may be compared.
type environment struct {
	// Revision and GoVersion are earthd's own, read from /buildinfo. A
	// binary built outside a git checkout reports no revision.
	Revision  string `json:"revision"`
	GoVersion string `json:"go_version"`
	NProc     int    `json:"nproc"`
	// EarthdGOMAXPROCS is this process's value: earthd inherits its
	// environment and CPU affinity, and runs on the same toolchain.
	EarthdGOMAXPROCS int    `json:"earthd_gomaxprocs"`
	Kernel           string `json:"kernel"`
}

func (r *runner) environment(d *daemon) (environment, error) {
	var b struct {
		Revision  string `json:"revision"`
		GoVersion string `json:"go_version"`
	}
	if err := d.getJSON("/buildinfo", &b); err != nil {
		return environment{}, err
	}
	kernel, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return environment{}, err
	}
	return environment{
		Revision: b.Revision, GoVersion: b.GoVersion,
		NProc: r.nproc, EarthdGOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel: strings.TrimSpace(string(kernel)),
	}, nil
}

// fsNames covers the filesystems a journal directory is likely to sit on;
// anything else is reported by its magic number.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
}

// fsType names the filesystem holding dir: fsync cost, and so everything
// the journal workload measures, depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
