// Package netsim assembles whole testbeds out of the lower layers: stations
// (host + bus + interface), point-to-point links, and a small output-queued
// ATM switch — enough network to run every end-to-end experiment and the
// examples.
package netsim

import (
	"repro/internal/atm"
	"repro/internal/baseline"
	"repro/internal/bus"
	"repro/internal/host"
	"repro/internal/nic"
	"repro/internal/phy"
	"repro/internal/sim"
)

// Station is one workstation with the paper's interface installed.
type Station struct {
	Name  string
	Host  *host.Host
	Bus   *bus.Bus
	Iface *nic.Interface
}

// NewStation builds a station with the given interface configuration and
// default host/bus models.
func NewStation(k *sim.Kernel, cfg nic.Config) (*Station, error) {
	return NewStationFull(k, cfg, host.DefaultConfig(), bus.DefaultConfig())
}

// NewStationFull builds a station with explicit host and bus models. When
// the interface config carries a telemetry registry, the station's bus
// devices record into it too.
func NewStationFull(k *sim.Kernel, cfg nic.Config, hostCfg host.Config, busCfg bus.Config) (*Station, error) {
	h := host.New(k, hostCfg)
	b := bus.New(k, busCfg)
	if cfg.Metrics != nil {
		b.SetMetrics(cfg.Metrics)
	}
	iface, err := nic.New(k, cfg, h, b)
	if err != nil {
		return nil, err
	}
	return &Station{Name: cfg.Name, Host: h, Bus: b, Iface: iface}, nil
}

// NewHardwiredStation builds a station with the fixed-function baseline
// interface.
func NewHardwiredStation(k *sim.Kernel, cfg nic.Config) (*Station, error) {
	h := host.New(k, host.DefaultConfig())
	b := bus.New(k, bus.DefaultConfig())
	if cfg.Metrics != nil {
		b.SetMetrics(cfg.Metrics)
	}
	iface, err := baseline.NewHardwired(k, cfg, h, b)
	if err != nil {
		return nil, err
	}
	return &Station{Name: cfg.Name, Host: h, Bus: b, Iface: iface}, nil
}

// LinkConfig sets a point-to-point fiber's properties.
type LinkConfig struct {
	Delay       sim.Duration
	LossProb    float64
	CorruptProb float64
	Seed        uint64
}

// Connect wires a→b and b→a with independent cell links and returns them.
func Connect(k *sim.Kernel, a, b *Station, cfg LinkConfig) (ab, ba *phy.CellLink) {
	ab = phy.NewCellLink(k, cfg.Delay, cfg.Seed*2+1, b.Iface)
	ab.LossProb = cfg.LossProb
	ab.CorruptProb = cfg.CorruptProb
	ba = phy.NewCellLink(k, cfg.Delay, cfg.Seed*2+2, a.Iface)
	ba.LossProb = cfg.LossProb
	ba.CorruptProb = cfg.CorruptProb
	// Cells the fibers lose go back to the pool of the sender they came
	// from, which draws from it again.
	ab.SetCellPool(a.Iface.Pool())
	ba.SetCellPool(b.Iface.Pool())
	a.Iface.AttachSink(ab)
	b.Iface.AttachSink(ba)
	return ab, ba
}

// BaselineStation is a workstation with the per-cell-interrupt adapter.
type BaselineStation struct {
	Name    string
	Host    *host.Host
	Bus     *bus.Bus
	Adapter *baseline.HostSAR
}

// NewBaselineStation builds the per-cell baseline station.
func NewBaselineStation(k *sim.Kernel, name string, cfg baseline.Config) *BaselineStation {
	h := host.New(k, host.DefaultConfig())
	b := bus.New(k, bus.DefaultConfig())
	return &BaselineStation{Name: name, Host: h, Bus: b,
		Adapter: baseline.NewHostSAR(k, cfg, h, b)}
}

// ConnectBaseline wires two baseline stations together.
func ConnectBaseline(k *sim.Kernel, a, b *BaselineStation, cfg LinkConfig) (ab, ba *phy.CellLink) {
	ab = phy.NewCellLink(k, cfg.Delay, cfg.Seed*2+1, b.Adapter)
	ab.LossProb = cfg.LossProb
	ba = phy.NewCellLink(k, cfg.Delay, cfg.Seed*2+2, a.Adapter)
	ba.LossProb = cfg.LossProb
	ab.SetCellPool(a.Adapter.Pool())
	ba.SetCellPool(b.Adapter.Pool())
	a.Adapter.AttachSink(ab)
	b.Adapter.AttachSink(ba)
	return ab, ba
}

// pump drives a closed-loop greedy source: keep `window` packets in flight
// on vc until deadline.
type Source struct {
	k        *sim.Kernel
	station  *Station
	vc       atm.VC
	size     int
	deadline sim.Time
	Sent     uint64
}

// NewSource creates a greedy closed-loop source on a station.
func NewSource(k *sim.Kernel, s *Station, vc atm.VC, size int, deadline sim.Time) *Source {
	return &Source{k: k, station: s, vc: vc, size: size, deadline: deadline}
}

// Start launches `window` chained send loops.
func (s *Source) Start(window int) {
	payload := make([]byte, s.size)
	for i := range payload {
		payload[i] = byte(i)
	}
	var send func()
	send = func() {
		if s.k.Now() > s.deadline {
			return
		}
		if err := s.station.Iface.Send(s.vc, payload, send); err != nil {
			panic("netsim: source send failed: " + err.Error())
		}
		s.Sent++
	}
	for i := 0; i < window; i++ {
		send()
	}
}
