package nn

import "repro/internal/tensor"

// Workspace owns the activation buffers of Sequential.Infer. Each layer
// output, and each layer's scratch (Conv2D's zero-padded input planes),
// takes the next buffer in call order, reallocated only when its shape
// changes, so repeated passes over same-shaped inputs allocate nothing
// after the first. A tensor Infer returns lives in the workspace:
// it stays valid only until the next Infer on the same workspace.
//
// The zero value is ready to use. A workspace is not safe for concurrent
// use; each caller that runs inference concurrently needs its own.
type Workspace struct {
	bufs  []*tensor.Tensor // owned output buffers, in call order
	views []*tensor.Tensor // reshaped headers over other tensors' storage
	nbuf  int
	nview int
}

// inferer is implemented by every layer in this package: the inference
// pass (Forward with training false) with its output taken from ws. A nil
// ws allocates fresh outputs, which is what Forward does.
type inferer interface {
	infer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor
}

func (ws *Workspace) reset() {
	if ws != nil {
		ws.nbuf, ws.nview = 0, 0
	}
}

// take returns the next output buffer with the given shape. Its contents
// are stale: the caller must overwrite every element.
func (ws *Workspace) take(shape ...int) *tensor.Tensor {
	if ws == nil {
		return tensor.New(shape...)
	}
	t := ws.slot(&ws.bufs, &ws.nbuf)
	if *t == nil || !hasShape(*t, shape) {
		*t = tensor.New(shape...)
	}
	return *t
}

// like returns the next output buffer with x's shape, as take does.
func (ws *Workspace) like(x *tensor.Tensor) *tensor.Tensor {
	if ws == nil {
		return tensor.New(x.Shape()...)
	}
	t := ws.slot(&ws.bufs, &ws.nbuf)
	if *t == nil || !tensor.SameShape(*t, x) {
		*t = tensor.New(x.Shape()...)
	}
	return *t
}

// view returns x reshaped to shape, sharing x's storage. The header is
// kept apart from the owned buffers, so no later take can hand out another
// tensor's storage as its own.
func (ws *Workspace) view(x *tensor.Tensor, shape ...int) *tensor.Tensor {
	if ws == nil {
		return x.Reshape(shape...)
	}
	t := ws.slot(&ws.views, &ws.nview)
	if *t == nil || !hasShape(*t, shape) || !sameStorage(*t, x) {
		*t = x.Reshape(shape...)
	}
	return *t
}

func (ws *Workspace) slot(list *[]*tensor.Tensor, next *int) **tensor.Tensor {
	if *next == len(*list) {
		*list = append(*list, nil)
	}
	t := &(*list)[*next]
	*next++
	return t
}

func hasShape(t *tensor.Tensor, shape []int) bool {
	if t.Dims() != len(shape) {
		return false
	}
	for i, d := range shape {
		if t.Dim(i) != d {
			return false
		}
	}
	return true
}

// sameStorage reports whether two tensors of equal length share storage.
func sameStorage(a, b *tensor.Tensor) bool {
	ad, bd := a.Data(), b.Data()
	return len(ad) == len(bd) && (len(ad) == 0 || &ad[0] == &bd[0])
}
