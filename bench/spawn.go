package main

// spawn.go is the parent's handle on the server child (see child.go for
// the protocol).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"
)

// CPU partition (see splitCPUs): set once by main before any child starts.
var (
	genCPUs, serverCPUs cpuMask
	cpuSplit            bool
)

type childProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	w     *bufio.Writer
	enc   *json.Encoder
	dec   *json.Decoder
	ready childReady
}

// startChild re-executes this binary as the server, hands it the zones,
// and waits until it is serving.
func startChild(cfg childConfig, c *corpus) (*childProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if cpuSplit {
		err = startPinned(cmd, &serverCPUs, &genCPUs)
	} else {
		err = cmd.Start()
	}
	if err != nil {
		return nil, err
	}
	p := &childProc{cmd: cmd, stdin: stdin, w: bufio.NewWriterSize(stdin, 1<<20), dec: json.NewDecoder(stdout)}
	p.enc = json.NewEncoder(p.w)
	if err := p.load(cfg, c); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

func (p *childProc) load(cfg childConfig, c *corpus) error {
	if err := p.enc.Encode(childMsg{Config: &cfg}); err != nil {
		return err
	}
	for i := range c.zones {
		if err := p.enc.Encode(childMsg{Zone: &zoneMsg{Origin: c.zones[i].origin, Text: c.texts[i]}}); err != nil {
			return err
		}
	}
	if err := p.send("serve"); err != nil {
		return err
	}
	if err := p.dec.Decode(&p.ready); err != nil {
		return fmt.Errorf("server child did not come up: %w", err)
	}
	return nil
}

func (p *childProc) send(cmd string) error {
	if err := p.enc.Encode(childMsg{Cmd: cmd}); err != nil {
		return err
	}
	return p.w.Flush()
}

func (p *childProc) stats() (childStats, error) {
	var st childStats
	if err := p.send("stats"); err != nil {
		return st, err
	}
	if err := p.dec.Decode(&st); err != nil {
		return st, fmt.Errorf("server child stats: %w", err)
	}
	return st, nil
}

// stop asks the child to quit and waits for it; a child that does not
// leave within the grace period is killed, so none outlives the benchmark.
func (p *childProc) stop() {
	_ = p.send("quit")
	_ = p.stdin.Close()
	done := make(chan struct{})
	go func() {
		_ = p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
}
