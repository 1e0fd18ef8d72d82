package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is one server process the benchmark started.
type child struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
}

// launch starts bin with args, reads the "listening on <addr>" line the
// daemons print first, and returns once the address is known.
func launch(bin string, args ...string) (*child, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-log", "error"}, args...)...)
	// The kernel kills the child if the benchmark dies without stopping it
	// (SIGKILL cannot be caught).
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	if err := children.start(c); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	first := make(chan string, 1)
	go func() {
		// Reads the address line, then drains stdout so the child never
		// blocks on a full pipe; ends when the child exits.
		sc := bufio.NewScanner(out)
		if sc.Scan() {
			first <- sc.Text()
		}
		for sc.Scan() {
		}
		_ = cmd.Wait()
		close(c.done)
	}()
	select {
	case line := <-first:
		addr, ok := strings.CutPrefix(line, "listening on ")
		if !ok {
			c.stop()
			return nil, fmt.Errorf("%s: unexpected first line %q", bin, line)
		}
		c.base = "http://" + addr
		return c, nil
	case <-c.done:
		return nil, fmt.Errorf("%s exited before announcing its address: %s", bin, stderr.String())
	case <-time.After(20 * time.Second):
		c.stop()
		return nil, fmt.Errorf("%s did not announce its address", bin)
	}
}

// stop kills the child and waits until it has exited.
func (c *child) stop() {
	_ = c.cmd.Process.Kill()
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
	}
}

// procStat is the accounting the benchmark reads from /proc/<pid>.
type procStat struct {
	cpu   time.Duration // utime + stime
	hwmKB int64         // VmHWM: peak resident set
	rssKB int64         // VmRSS: resident set now
}

// readProc reads utime+stime from /proc/<pid>/stat and VmHWM from
// /proc/<pid>/status.
func readProc(pid int) (procStat, error) {
	var st procStat
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return st, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the name.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return st, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return st, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	stt, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return st, fmt.Errorf("malformed cpu times in /proc/%d/stat", pid)
	}
	st.cpu = time.Duration(ut+stt) * time.Second / clockTicks
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return st, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		name, v, ok := strings.Cut(line, ":")
		var dst *int64
		switch name {
		case "VmHWM":
			dst = &st.hwmKB
		case "VmRSS":
			dst = &st.rssKB
		}
		if !ok || dst == nil {
			continue
		}
		kb := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB"))
		if *dst, err = strconv.ParseInt(kb, 10, 64); err != nil {
			return st, fmt.Errorf("malformed %s in /proc/%d/status", name, pid)
		}
	}
	return st, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat cpu times; 100 on
// every Linux platform Go supports.
const clockTicks = 100

// usage sums cpu time and takes the highest VmHWM over the children.
func usage(cs []*child) (procStat, error) {
	var tot procStat
	for _, c := range cs {
		st, err := readProc(c.cmd.Process.Pid)
		if err != nil {
			return tot, err
		}
		tot.cpu += st.cpu
		tot.hwmKB = max(tot.hwmKB, st.hwmKB)
		tot.rssKB = max(tot.rssKB, st.rssKB)
	}
	return tot, nil
}

// machineSteal reads the steal column of /proc/stat: time the hypervisor
// gave to other guests while this guest's CPUs had work. It is reported
// beside the figures so a noisy neighbour shows in the record.
func machineSteal() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(v) * time.Second / clockTicks
}

// procSample is the children's accounting and the machine's steal at one
// instant.
type procSample struct {
	at    time.Time
	steal time.Duration
	procStat
}

// sampleProcs reads the children's accounting now, every interval, and
// once more when stop is closed, then sends the samples.
func sampleProcs(cs []*child, every time.Duration, stop <-chan struct{}) <-chan []procSample {
	out := make(chan []procSample, 1)
	var ss []procSample
	take := func() {
		if st, err := usage(cs); err == nil {
			ss = append(ss, procSample{time.Now(), machineSteal(), st})
		}
	}
	take()
	go func() {
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				take()
				out <- ss
				return
			case <-tick.C:
				take()
			}
		}
	}()
	return out
}

// rssMedianMB is the median over samples of the largest child's VmRSS: the
// resident memory the topology holds while it serves, which unlike the
// VmHWM peak does not hinge on how far one garbage-collection cycle
// overshot.
func rssMedianMB(ss []procSample) float64 {
	var mb []float64
	for _, s := range ss {
		mb = append(mb, float64(s.rssKB)/1024)
	}
	return median(mb)
}

// sampleAt is the last sample not after t, or the first sample when t
// precedes them all.
func sampleAt(ss []procSample, t time.Time) procSample {
	i := sort.Search(len(ss), func(i int) bool { return ss[i].at.After(t) })
	return ss[max(i-1, 0)]
}
