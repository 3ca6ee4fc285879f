// Package storage models the secondary flash storage of a mobile device
// (UFS or eMMC). Reclaimed dirty file pages are written back here, clean
// file pages are re-read from here on refault, and application cold launches
// stream their code and resource pages from here.
//
// The device is a single-queue model: requests are serviced in FIFO order at
// a per-page latency that differs between reads and writes and between
// device classes. That is enough to reproduce the paper's I/O interference
// channel — reclaim writeback and BG refault reads queue ahead of FG reads
// and delay them.
package storage

import (
	"fmt"

	"github.com/eurosys23/ice/internal/obs"
	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/trace"
)

// Params describes a flash device class. Latencies are per simulated page
// (one simulated page stands for 16 real 4 KiB pages, i.e. 64 KiB of data).
type Params struct {
	Name         string
	ReadLatency  sim.Time // service time per page read (sequential)
	WriteLatency sim.Time // service time per page written
	// RandReadLatency is the service time per page of *random* reads.
	// A refaulted simulated page is 16 scattered 4 KiB reads; even with
	// internal parallelism that is an order of magnitude slower than a
	// sequential 64 KiB transfer. Refault service uses this path.
	RandReadLatency sim.Time
}

// Typical device classes for the phones in the paper's Table 2.
var (
	// EMMC51 models the 64 GB eMMC 5.1 part in the Pixel3
	// (~250 MB/s sequential read, ~125 MB/s write).
	EMMC51 = Params{Name: "eMMC5.1", ReadLatency: 250 * sim.Microsecond, WriteLatency: 500 * sim.Microsecond, RandReadLatency: 1400 * sim.Microsecond}
	// UFS21 models the 64 GB UFS 2.1 part in the HUAWEI P20
	// (~700 MB/s sequential read, ~200 MB/s write).
	UFS21 = Params{Name: "UFS2.1", ReadLatency: 90 * sim.Microsecond, WriteLatency: 320 * sim.Microsecond, RandReadLatency: 500 * sim.Microsecond}
)

// Stats aggregates device activity. Requests correspond to bio instances in
// the kernel: one request may cover several pages. The page and read
// counts are read back from the device's registry instruments.
type Stats struct {
	ReadRequests  uint64
	WriteRequests uint64
	PagesRead     uint64
	PagesWritten  uint64
	// BusyTime is total device service time, for utilisation estimates.
	BusyTime sim.Time
}

// TotalRequests returns the combined read+write request count.
func (s Stats) TotalRequests() uint64 { return s.ReadRequests + s.WriteRequests }

// TotalPages returns the combined page count moved in either direction.
func (s Stats) TotalPages() uint64 { return s.PagesRead + s.PagesWritten }

// Device is a simulated flash device attached to a simulation engine.
//
// Reads and writes are modelled as separate channels (flash controllers
// prioritise reads), but a deep write backlog still slows reads down:
// a read is additionally delayed by a capped fraction of the outstanding
// write backlog. This is how reclaim writeback congests foreground
// refault reads without blocking them outright.
type Device struct {
	eng    *sim.Engine
	params Params

	// readBusyUntil / writeBusyUntil are the per-channel FIFO servers.
	readBusyUntil  sim.Time
	writeBusyUntil sim.Time

	// writeRequests and busyTime are the Stats fields no instrument
	// carries; readWait counts the read requests.
	writeRequests uint64
	busyTime      sim.Time

	pagesRead    *obs.Counter
	pagesWritten *obs.Counter
	readWait     *obs.Histogram
	writeBacklog *obs.Gauge
	tr           *trace.Buffer
}

// Queueing couplings. NCQ re-ordering means one request never waits for
// the entire backlog, so both couplings are capped.
const (
	writeInterferenceFrac = 4               // reads see 1/4 of the write backlog
	maxWriteInterference  = sim.Time(8000)  // capped at 8 ms
	maxReadQueueWait      = sim.Time(25000) // read-behind-read wait cap, 25 ms
)

// New creates a device on the given engine.
func New(eng *sim.Engine, params Params) *Device {
	if params.RandReadLatency <= 0 {
		params.RandReadLatency = 4 * params.ReadLatency
	}
	if params.ReadLatency <= 0 || params.WriteLatency <= 0 {
		panic(fmt.Sprintf("storage: non-positive latency in params %+v", params))
	}
	reg := eng.Obs()
	return &Device{
		eng:          eng,
		params:       params,
		pagesRead:    reg.Counter("io.pages_read"),
		pagesWritten: reg.Counter("io.pages_written"),
		readWait:     reg.Histogram("io.read.queue_wait_us"),
		writeBacklog: reg.Gauge("io.write.backlog_us"),
	}
}

// SetTrace attaches a trace buffer; the device emits CatIO spans for every
// request into it. A nil buffer is valid.
func (d *Device) SetTrace(b *trace.Buffer) { d.tr = b }

// Params returns the device class parameters.
func (d *Device) Params() Params { return d.params }

// Stats returns a snapshot of the accumulated statistics.
func (d *Device) Stats() Stats {
	return Stats{
		ReadRequests:  d.readWait.Count(),
		WriteRequests: d.writeRequests,
		PagesRead:     d.pagesRead.Value(),
		PagesWritten:  d.pagesWritten.Value(),
		BusyTime:      d.busyTime,
	}
}

// ResetStats zeroes the statistics counters (the queue state and the
// write-backlog gauge are preserved).
func (d *Device) ResetStats() {
	d.writeRequests, d.busyTime = 0, 0
	d.pagesRead.Reset()
	d.pagesWritten.Reset()
	d.readWait.Reset()
}

// ReadQueueDelay reports how long a read submitted now would wait before
// entering service, including write-backlog interference and the NCQ
// overtaking cap.
func (d *Device) ReadQueueDelay() sim.Time {
	now := d.eng.Now()
	delay := d.writeInterference(now)
	if d.readBusyUntil > now+delay {
		delay = d.readBusyUntil - now
	}
	if delay > maxReadQueueWait {
		delay = maxReadQueueWait
	}
	return delay
}

// writeInterference is the capped share of the write backlog a read must
// sit behind.
func (d *Device) writeInterference(now sim.Time) sim.Time {
	if d.writeBusyUntil <= now {
		return 0
	}
	inter := (d.writeBusyUntil - now) / writeInterferenceFrac
	if inter > maxWriteInterference {
		inter = maxWriteInterference
	}
	return inter
}

// Read enqueues a sequential read of n pages (launch prefetch, code
// streaming). done, if non-nil, runs at completion. It returns the
// completion time, letting synchronous callers compute the stall they must
// charge.
func (d *Device) Read(n int, done func()) sim.Time {
	return d.read(n, d.params.ReadLatency, "flash-read", done)
}

// ReadRandom enqueues a random read of n pages (refault service).
func (d *Device) ReadRandom(n int, done func()) sim.Time {
	return d.read(n, d.params.RandReadLatency, "flash-read-rand", done)
}

func (d *Device) read(n int, perPage sim.Time, name string, done func()) sim.Time {
	now := d.eng.Now()
	if n <= 0 {
		return now
	}
	wait := d.writeInterference(now)
	if d.readBusyUntil > now+wait {
		wait = d.readBusyUntil - now
	}
	if wait > maxReadQueueWait {
		wait = maxReadQueueWait
	}
	start := now + wait
	service := sim.Time(n) * perPage
	end := start + service
	if end > d.readBusyUntil {
		d.readBusyUntil = end
	}
	d.busyTime += service
	d.pagesRead.Add(uint64(n))
	d.readWait.Observe(int64(wait))
	d.tr.Span(start, trace.CatIO, name, 0, service, int64(n), int64(wait))
	if done != nil {
		d.eng.At(end, done)
	}
	return end
}

// Write enqueues a write-back of n pages. done, if non-nil, runs at
// completion. Reclaim uses nil: writeback is asynchronous and nothing waits.
func (d *Device) Write(n int, done func()) sim.Time {
	now := d.eng.Now()
	if n <= 0 {
		return now
	}
	start := now
	if d.writeBusyUntil > start {
		start = d.writeBusyUntil
	}
	service := sim.Time(n) * d.params.WriteLatency
	d.writeBusyUntil = start + service
	d.busyTime += service
	d.writeRequests++
	d.pagesWritten.Add(uint64(n))
	d.writeBacklog.Set(int64(d.writeBusyUntil - now))
	d.tr.Span(start, trace.CatIO, "flash-write", 0, service, int64(n), int64(start-now))
	if done != nil {
		d.eng.At(d.writeBusyUntil, done)
	}
	return d.writeBusyUntil
}
