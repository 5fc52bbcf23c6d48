package storage

import (
	"sync/atomic"

	"aidb/internal/chaos"
)

// Chaos injection sites in the storage layer. ChaosDisk consults the
// disk sites; the WAL consults SiteWALAppend (see wal.go).
const (
	SiteDiskAllocate = "storage.disk.allocate"
	SiteDiskRead     = "storage.disk.read"
	SiteDiskWrite    = "storage.disk.write"
	SiteWALAppend    = "storage.wal.append"
)

// ChaosDisk wraps any DiskManager with chaos fault injection: Error
// rules fail the operation, Corrupt rules flip a bit in the payload
// (writes corrupt what lands on disk; reads and views corrupt what the
// caller sees), and Latency rules accrue virtual delay in DelayUnits.
// A nil injector makes ChaosDisk a transparent pass-through.
type ChaosDisk struct {
	inner DiskManager
	inj   *chaos.Injector
	delay atomic.Int64
}

// WrapDisk wraps inner with the injector.
func WrapDisk(inner DiskManager, inj *chaos.Injector) *ChaosDisk {
	return &ChaosDisk{inner: inner, inj: inj}
}

// Allocate implements DiskManager.
func (d *ChaosDisk) Allocate() (PageID, error) {
	if err := d.inj.Fail(SiteDiskAllocate); err != nil {
		return 0, err
	}
	return d.inner.Allocate()
}

// Read implements DiskManager.
func (d *ChaosDisk) Read(id PageID, buf []byte) error {
	d.delay.Add(int64(d.inj.Latency(SiteDiskRead)))
	if err := d.inj.Fail(SiteDiskRead); err != nil {
		return err
	}
	if err := d.inner.Read(id, buf); err != nil {
		return err
	}
	d.inj.Corrupt(SiteDiskRead, buf)
	return nil
}

// View implements DiskManager. fn sees a copy read through Read, so a
// Corrupt rule damages that copy and never the inner disk's bytes.
func (d *ChaosDisk) View(id PageID, fn func(b []byte) error) error { return viewCopy(d, id, fn) }

// Write implements DiskManager.
func (d *ChaosDisk) Write(id PageID, buf []byte) error {
	d.delay.Add(int64(d.inj.Latency(SiteDiskWrite)))
	if err := d.inj.Fail(SiteDiskWrite); err != nil {
		return err
	}
	data := buf
	if d.inj != nil {
		// Corrupt a private copy so the caller's buffer stays intact —
		// the fault models a bad write to media, not memory corruption.
		tmp := append([]byte(nil), buf...)
		if d.inj.Corrupt(SiteDiskWrite, tmp) {
			data = tmp
		}
	}
	return d.inner.Write(id, data)
}

// NumPages implements DiskManager.
func (d *ChaosDisk) NumPages() int { return d.inner.NumPages() }

// Close implements DiskManager.
func (d *ChaosDisk) Close() error { return d.inner.Close() }

// DelayUnits reports total virtual latency injected at the disk sites.
func (d *ChaosDisk) DelayUnits() int64 { return d.delay.Load() }
