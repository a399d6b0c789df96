package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is a subprocess the benchmark owns: the batch worker or
// chortled. Its stdout is read line by line; its stderr is kept (the
// tail) for error messages. A child dies with the benchmark
// (Pdeathsig), and every path through the benchmark waits for it.
type child struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	lines   chan string // stdout lines; closed at EOF
	started time.Time

	mu     sync.Mutex
	stderr []byte

	quitOnce sync.Once
	quit     chan struct{} // closed once nobody reads lines any more
	waitErr  error
	done     chan struct{}
}

// stderrKeep bounds the stderr tail kept for diagnostics.
const stderrKeep = 8 << 10

func startChild(path string, args []string) (*child, error) {
	c := &child{cmd: exec.Command(path, args...), lines: make(chan string, 1),
		quit: make(chan struct{}), done: make(chan struct{})}
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if c.stdin, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	c.started = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", path, err)
	}
	var pipes sync.WaitGroup
	pipes.Add(2)
	go func() {
		defer pipes.Done()
		defer close(c.lines)
		r := bufio.NewReaderSize(stdout, 1<<20)
		for {
			line, err := r.ReadString('\n')
			if line != "" {
				select {
				case c.lines <- strings.TrimRight(line, "\n"):
				case <-c.quit:
				}
			}
			if err != nil {
				return
			}
		}
	}()
	go func() {
		defer pipes.Done()
		buf := make([]byte, 4096)
		for {
			n, err := stderr.Read(buf)
			c.mu.Lock()
			c.stderr = append(c.stderr, buf[:n]...)
			if len(c.stderr) > stderrKeep {
				c.stderr = c.stderr[len(c.stderr)-stderrKeep:]
			}
			c.mu.Unlock()
			if err != nil {
				return
			}
		}
	}()
	go func() {
		// Wait must follow the pipe readers (os/exec's rule); it then
		// reaps the process and records its rusage.
		pipes.Wait()
		c.waitErr = c.cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// readLine returns the child's next stdout line.
func (c *child) readLine(timeout time.Duration) (string, error) {
	select {
	case line, ok := <-c.lines:
		if !ok {
			return "", fmt.Errorf("%s exited", c.cmd.Path)
		}
		return line, nil
	case <-time.After(timeout):
		return "", fmt.Errorf("%s: no output within %s", c.cmd.Path, timeout)
	}
}

// request writes a command to the child's stdin and returns its reply.
func (c *child) request(cmd string, timeout time.Duration) (string, error) {
	if _, err := io.WriteString(c.stdin, cmd); err != nil {
		return "", err
	}
	return c.readLine(timeout)
}

// finish sends a last command, closes stdin and waits for exit.
func (c *child) finish(cmd string) error {
	_, _ = io.WriteString(c.stdin, cmd) // a child already gone fails wait below
	c.stdin.Close()
	return c.wait()
}

// signal asks the child to stop (chortled drains on SIGTERM) and waits.
func (c *child) signal(sig os.Signal) error {
	if err := c.cmd.Process.Signal(sig); err != nil {
		return err
	}
	return c.wait()
}

// wait blocks until the child has exited, at most a minute, then kills it.
func (c *child) wait() error {
	c.stopReading()
	select {
	case <-c.done:
	case <-time.After(time.Minute):
		c.kill()
		return fmt.Errorf("%s did not exit; killed", c.cmd.Path)
	}
	if c.waitErr != nil {
		return fmt.Errorf("%s: %v%s", c.cmd.Path, c.waitErr, c.stderrTail())
	}
	return nil
}

// kill ends the child and waits for it; safe on a child already gone.
func (c *child) kill() {
	c.stopReading()
	_ = c.cmd.Process.Kill() // fails only when the process already exited
	<-c.done
}

// peakRSSMB is the child's VmHWM in MiB, from its rusage at exit.
func (c *child) peakRSSMB() float64 {
	<-c.done
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// stopReading discards stdout from now on, so the reader never blocks
// a child that is exiting.
func (c *child) stopReading() { c.quitOnce.Do(func() { close(c.quit) }) }

func (c *child) stderrTail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.stderr) == 0 {
		return ""
	}
	return "\n" + string(c.stderr)
}
