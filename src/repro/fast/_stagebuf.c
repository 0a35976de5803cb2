/* StageBuffer — a preallocated C staging block for scalar sketch updates.
 *
 * The pure-Python scalar path of FastReqSketch is bounded by CPython's
 * per-call bytecode overhead (~250 ns/item for the seed engine).  This
 * module moves the per-item work — float conversion, NaN rejection, store,
 * full-check — into a single METH_O C call, so `sketch.update` (bound to
 * `StageBuffer.push` on instances) costs one C function dispatch per item.
 * `extend` does the same for a small batch: one NaN scan and one copy in
 * a single call, which is all `update_many` pays below the block size.
 * When the block fills, a Python callback drains it into the level
 * structure; everything amortized stays vectorized numpy on the Python
 * side.
 *
 * Compiled at import time by repro.fast._native (gcc, cached under
 * _build/); repro.fast.engine falls back to a pure-Python mirror of this
 * API when no compiler or headers are available.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include "structmember.h"
#include <string.h>

typedef struct {
    PyObject_HEAD
    double *buf;           /* preallocated block of `capacity` doubles */
    Py_ssize_t capacity;
    Py_ssize_t count;      /* filled prefix length */
    PyObject *flush_cb;    /* no-arg callable fired when the block fills */
    PyObject *nan_exc;     /* exception type raised for NaN items */
} StageBuffer;

/* Fire the flush callback; it must drain the buffer (count -> 0). */
static int
stage_fire_flush(StageBuffer *self)
{
    PyObject *result;
    if (self->flush_cb == NULL || self->flush_cb == Py_None) {
        PyErr_SetString(PyExc_RuntimeError,
                        "StageBuffer is full and no flush callback is set");
        return -1;
    }
    result = PyObject_CallNoArgs(self->flush_cb);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    if (self->count >= self->capacity) {
        PyErr_SetString(PyExc_RuntimeError,
                        "StageBuffer flush callback did not drain the buffer");
        return -1;
    }
    return 0;
}

static PyObject *
stage_push(StageBuffer *self, PyObject *item)
{
    double value = PyFloat_AsDouble(item);
    if (value == -1.0 && PyErr_Occurred())
        return NULL;
    if (value != value) {
        PyErr_SetString(self->nan_exc ? self->nan_exc : PyExc_ValueError,
                        "cannot insert NaN: items must form a total order");
        return NULL;
    }
    /* A failed flush (callback raised) can leave the buffer full; retry
     * the flush before storing so the write below never goes past the
     * end of the block. */
    if (self->count >= self->capacity && stage_fire_flush(self) < 0)
        return NULL;
    self->buf[self->count++] = value;
    if (self->count == self->capacity && stage_fire_flush(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* Bulk-append from any C-contiguous buffer of float64.  The whole buffer
 * is scanned for NaN before anything is copied, so a rejected batch
 * leaves the block (and the sketch's n) untouched. */
static PyObject *
stage_extend(StageBuffer *self, PyObject *arg)
{
    Py_buffer view;
    const double *src;
    Py_ssize_t remaining;
    Py_ssize_t i;

    if (PyObject_GetBuffer(arg, &view, PyBUF_CONTIG_RO) < 0)
        return NULL;
    if (view.itemsize != (Py_ssize_t)sizeof(double) ||
        view.len % (Py_ssize_t)sizeof(double) != 0) {
        PyBuffer_Release(&view);
        PyErr_SetString(PyExc_TypeError,
                        "StageBuffer.extend needs a contiguous float64 buffer");
        return NULL;
    }
    src = (const double *)view.buf;
    remaining = view.len / (Py_ssize_t)sizeof(double);
    for (i = 0; i < remaining; i++) {
        double value;
        /* memcpy: a wire frame's values need not be 8-byte aligned */
        memcpy(&value, (const char *)view.buf + i * (Py_ssize_t)sizeof(double),
               sizeof(double));
        if (value != value) {
            PyBuffer_Release(&view);
            PyErr_SetString(self->nan_exc ? self->nan_exc : PyExc_ValueError,
                            "cannot insert NaN: items must form a total order");
            return NULL;
        }
    }
    while (remaining > 0) {
        Py_ssize_t space = self->capacity - self->count;
        Py_ssize_t take = remaining < space ? remaining : space;
        memcpy(self->buf + self->count, src, (size_t)take * sizeof(double));
        self->count += take;
        src += take;
        remaining -= take;
        if (self->count == self->capacity && stage_fire_flush(self) < 0) {
            PyBuffer_Release(&view);
            return NULL;
        }
    }
    PyBuffer_Release(&view);
    Py_RETURN_NONE;
}

/* Return the staged items as bytes (copy) and reset the buffer. */
static PyObject *
stage_drain(StageBuffer *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *bytes = PyBytes_FromStringAndSize(
        (const char *)self->buf, self->count * (Py_ssize_t)sizeof(double));
    if (bytes == NULL)
        return NULL;
    self->count = 0;
    return bytes;
}

/* Return the staged items as bytes without resetting the buffer.  Lets a
 * merge snapshot a donor sketch's staged items without mutating it. */
static PyObject *
stage_peek(StageBuffer *self, PyObject *Py_UNUSED(ignored))
{
    return PyBytes_FromStringAndSize(
        (const char *)self->buf, self->count * (Py_ssize_t)sizeof(double));
}

static PyObject *
stage_set_flush(StageBuffer *self, PyObject *cb)
{
    PyObject *old = self->flush_cb;
    Py_INCREF(cb);
    self->flush_cb = cb;
    Py_XDECREF(old);
    Py_RETURN_NONE;
}

static PyObject *
stage_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"capacity", "nan_exc", NULL};
    Py_ssize_t capacity;
    PyObject *nan_exc = NULL;
    StageBuffer *self;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "n|O", kwlist,
                                     &capacity, &nan_exc))
        return NULL;
    if (capacity < 1) {
        PyErr_SetString(PyExc_ValueError, "capacity must be >= 1");
        return NULL;
    }
    self = (StageBuffer *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->buf = (double *)PyMem_Malloc((size_t)capacity * sizeof(double));
    if (self->buf == NULL) {
        Py_DECREF(self);
        return PyErr_NoMemory();
    }
    self->capacity = capacity;
    self->count = 0;
    self->flush_cb = NULL;
    if (nan_exc != NULL && nan_exc != Py_None) {
        Py_INCREF(nan_exc);
        self->nan_exc = nan_exc;
    } else {
        self->nan_exc = NULL;
    }
    return (PyObject *)self;
}

static int
stage_traverse(StageBuffer *self, visitproc visit, void *arg)
{
    Py_VISIT(self->flush_cb);
    Py_VISIT(self->nan_exc);
    return 0;
}

static int
stage_clear(StageBuffer *self)
{
    Py_CLEAR(self->flush_cb);
    Py_CLEAR(self->nan_exc);
    return 0;
}

static void
stage_dealloc(StageBuffer *self)
{
    PyObject_GC_UnTrack(self);
    stage_clear(self);
    PyMem_Free(self->buf);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMemberDef stage_members[] = {
    {"count", T_PYSSIZET, offsetof(StageBuffer, count), READONLY,
     "number of staged items"},
    {"capacity", T_PYSSIZET, offsetof(StageBuffer, capacity), READONLY,
     "block size that triggers the flush callback"},
    {NULL}
};

static PyMethodDef stage_methods[] = {
    {"push", (PyCFunction)stage_push, METH_O,
     "push(item) — stage one float (NaN rejected); flushes when full"},
    {"extend", (PyCFunction)stage_extend, METH_O,
     "extend(buffer) — stage a contiguous float64 buffer; rejects NaN "
     "before staging anything"},
    {"drain", (PyCFunction)stage_drain, METH_NOARGS,
     "drain() -> bytes — copy out the staged float64 block and reset"},
    {"peek", (PyCFunction)stage_peek, METH_NOARGS,
     "peek() -> bytes — copy out the staged float64 block without reset"},
    {"set_flush", (PyCFunction)stage_set_flush, METH_O,
     "set_flush(callable) — no-arg callback fired when the block fills"},
    {NULL}
};

static PyTypeObject StageBufferType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_stagebuf.StageBuffer",
    .tp_basicsize = sizeof(StageBuffer),
    .tp_dealloc = (destructor)stage_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Preallocated float64 staging block with a flush callback.",
    .tp_traverse = (traverseproc)stage_traverse,
    .tp_clear = (inquiry)stage_clear,
    .tp_methods = stage_methods,
    .tp_members = stage_members,
    .tp_new = stage_new,
};

static PyModuleDef stagebuf_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_stagebuf",
    .m_doc = "C staging block for FastReqSketch scalar updates.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__stagebuf(void)
{
    PyObject *module;
    if (PyType_Ready(&StageBufferType) < 0)
        return NULL;
    module = PyModule_Create(&stagebuf_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&StageBufferType);
    if (PyModule_AddObject(module, "StageBuffer",
                           (PyObject *)&StageBufferType) < 0) {
        Py_DECREF(&StageBufferType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
