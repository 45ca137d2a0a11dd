package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"
)

// hostSpeed is the harness's answer to a shared host whose speed changes under
// the benchmark's feet. On the 2-vCPU sandbox this was written on, episodes of
// 30–60 s in which everything runs 15–25 % slower come and go (a neighbour on
// the sibling hyperthread; it is not reported as steal time), so two 10 s runs
// of one commit differ by more than any bound worth setting. The harness
// therefore runs three reference kernels of its own before and after every
// timed section, on as many goroutines as the workload has clients, and
// scales the section's times by the measured speed relative to nominal:
//
//	alu   a dependent multiply-xorshift chain
//	mem   random loads over 256 KiB per goroutine
//	echo  32-byte round trips over loopback TCP to an echo goroutine
//
// Library-level sections are scaled by sqrt(alu·mem), sections that cross the
// loopback server by sqrt(echo·mem). The kernels contain no product code, so
// a faster product moves the metric and a slower host does not. README.md
// has the measurements behind the choice of kernels.
type hostSpeed struct {
	nc       int
	burstLen time.Duration
	mem      [][]uint64
	ln       net.Listener
	conns    []net.Conn
	bufs     [][]byte
}

// speed is the host's speed relative to nominal: 1 is nominal, 0.8 means
// everything takes 1/0.8 as long.
type speed struct{ lib, net float64 }

const (
	calibBurst  = 10 * time.Millisecond
	calibBursts = 3 // per kernel; the median burst is used

	// Nominal kernel rates (iterations/s per goroutine) on the reference
	// host when quiet. They only fix the scale: a different host shifts
	// every metric of every commit by the same factor.
	nominalALU  = 250e6
	nominalMem  = 225e6
	nominalEcho = 62e3

	calibMemWords = 32 << 10
	echoBytes     = 32
)

func newHostSpeed(e *env) (*hostSpeed, error) {
	nc := e.nc
	h := &hostSpeed{nc: nc, burstLen: calibBurst}
	if e.quick {
		h.burstLen = calibBurst / 10
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("calibration echo server: %w", err)
	}
	h.ln = ln
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			go func() {
				defer c.Close()
				buf := make([]byte, echoBytes)
				for {
					if _, err := io.ReadFull(c, buf); err != nil {
						return
					}
					if _, err := c.Write(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	for c := 0; c < nc; c++ {
		m := make([]uint64, calibMemWords)
		for i := range m {
			m[i] = uint64(i)
		}
		h.mem = append(h.mem, m)
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			h.close()
			return nil, fmt.Errorf("calibration echo client: %w", err)
		}
		h.conns = append(h.conns, conn)
		h.bufs = append(h.bufs, make([]byte, echoBytes))
	}
	return h, nil
}

// close stops the echo goroutines: the listener's accept loop ends and every
// connection's echo loop sees its peer close.
func (h *hostSpeed) close() {
	h.ln.Close()
	for _, c := range h.conns {
		c.Close()
	}
}

// calibSink keeps the kernels' results alive.
var calibSink uint64

// burst runs kernel on every goroutine for burstLen and returns the
// iterations per second per goroutine. kernel returns how many it did.
func (h *hostSpeed) burst(kernel func(c int, x uint64) (uint64, uint64)) float64 {
	var wg sync.WaitGroup
	counts, sinks := make([]uint64, h.nc), make([]uint64, h.nc)
	start := time.Now()
	for c := 0; c < h.nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			x, n := uint64(c+1), uint64(0)
			for time.Since(start) < h.burstLen {
				var did uint64
				x, did = kernel(c, x)
				n += did
			}
			sinks[c], counts[c] = x, n
		}(c)
	}
	wg.Wait()
	var n uint64
	for c := range counts {
		n += counts[c]
		calibSink += sinks[c]
	}
	return float64(n) / time.Since(start).Seconds() / float64(h.nc)
}

func aluKernel(_ int, x uint64) (uint64, uint64) {
	for i := 0; i < 256; i++ {
		x = mix64(x)
	}
	return x, 256
}

func (h *hostSpeed) memKernel(c int, x uint64) (uint64, uint64) {
	var s uint64
	m := h.mem[c]
	for i := 0; i < 256; i++ {
		x = mix64(x)
		s += m[x&(calibMemWords-1)]
	}
	return x ^ s, 256
}

func (h *hostSpeed) echoKernel(c int, x uint64) (uint64, uint64) {
	for i := 0; i < 4; i++ {
		if _, err := h.conns[c].Write(h.bufs[c]); err != nil {
			return x, 0
		}
		if _, err := io.ReadFull(h.conns[c], h.bufs[c]); err != nil {
			return x, 0
		}
	}
	return x + 1, 4
}

func (h *hostSpeed) measure() speed {
	alu, mem, echo := make([]float64, calibBursts), make([]float64, calibBursts), make([]float64, calibBursts)
	for i := 0; i < calibBursts; i++ {
		alu[i] = h.burst(aluKernel)
		mem[i] = h.burst(h.memKernel)
		echo[i] = h.burst(h.echoKernel)
	}
	m := median(mem) / nominalMem
	return speed{lib: math.Sqrt(median(alu) / nominalALU * m), net: math.Sqrt(median(echo) / nominalEcho * m)}
}

// speedChain measures the host speed between consecutive timed sections:
// start measures once, and each next returns the mean of the measurements
// before and after the section that just ended.
type speedChain struct {
	h    *hostSpeed
	last speed
}

func (h *hostSpeed) start() *speedChain { return &speedChain{h: h, last: h.measure()} }

func (s *speedChain) next() speed {
	cur := s.h.measure()
	avg := speed{lib: (s.last.lib + cur.lib) / 2, net: (s.last.net + cur.net) / 2}
	s.last = cur
	return avg
}
