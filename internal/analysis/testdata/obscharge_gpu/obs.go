//qmclint:path questgo/internal/gpu

// Package fixture exercises the receiver-qualified slot of the obscharge
// registry: in internal/gpu only Accelerator.Wrap is a kernel entry point;
// the device backend's Wrap, which delegates to it, must stay silent.
package fixture

type Accelerator struct{}

func (a *Accelerator) Wrap() { // want "must be annotated //qmc:charges OpWraps"
}

type backend struct{ acc *Accelerator }

func (b *backend) Wrap() { b.acc.Wrap() }
