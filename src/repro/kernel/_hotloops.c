/* Compiled hot loops for the `compiled` kernel backend.
 *
 * One type matters: BatchDrain, the callable the processor batch loop
 * hands each reference to (``machine.kernel_drain``).  A call walks the
 * stream's materialised block of references and consumes the longest
 * prefix of consecutive cache *hits* (read hit: line CLEAN or DIRTY;
 * write hit: line DIRTY), performing exactly the state updates the
 * interpreter batch loop would — LRU touch per hit, local-time advance
 * by think + cache-hit latency, batch-budget check before every
 * reference, then the stream position and the hit counters in bulk.
 * It stops, without consuming, at the first reference that is not a
 * plain cache hit (the interpreter then runs the full protocol path for
 * it), so misses, AM accesses, coordination and failures all keep their
 * pure-Python semantics.
 *
 * The object holds the per-machine constants and is called with the
 * vectorcall (fastcall) convention: the four arguments arrive as a C
 * array, with no argument tuple to pack or parse.
 *
 * Built by `python -m repro.kernel.build_ext` (no build-time
 * dependencies beyond a C compiler and the Python headers); the
 * backend degrades to pure Python when the extension is absent.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stddef.h>

#ifndef Py_TPFLAGS_HAVE_VECTORCALL
#define Py_TPFLAGS_HAVE_VECTORCALL _Py_TPFLAGS_HAVE_VECTORCALL
#endif

/* interned attribute names, created once at module import */
static PyObject *s_ref_at, *s_position, *s_proc_id, *s_proc, *s_base,
    *s_end, *s_think, *s_is_write, *s_addr, *s_block, *s_cache, *s_stats,
    *s_index, *s_sets, *s_lines, *s_refs, *s_reads, *s_writes,
    *s_read_hits, *s_write_hits;

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    PyObject *block_type; /* repro.kernel.blocks.BlockRefAt */
    PyObject *invalid;    /* LineState.INVALID */
    PyObject *dirty;      /* LineState.DIRTY */
    long long hit_lat, n_sets, sector_bytes, line_bytes;
} DrainObject;

/* Python's floor division and modulo (b > 0) */
static inline long long
floor_div(long long a, long long b)
{
    long long q = a / b;
    return (a % b < 0) ? q - 1 : q;
}

static inline long long
floor_mod(long long a, long long b)
{
    long long r = a % b;
    return r < 0 ? r + b : r;
}

/* getattr(obj, name) as a C long long; -1 with an exception on error */
static int
attr_as_ll(PyObject *obj, PyObject *name, long long *out)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    *out = PyLong_AsLongLong(v);
    Py_DECREF(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* obj.name += delta */
static int
add_to_attr(PyObject *obj, PyObject *name, long long delta)
{
    PyObject *old = PyObject_GetAttr(obj, name);
    if (old == NULL)
        return -1;
    PyObject *d = PyLong_FromLongLong(delta);
    if (d == NULL) {
        Py_DECREF(old);
        return -1;
    }
    PyObject *new = PyNumber_InPlaceAdd(old, d);
    Py_DECREF(old);
    Py_DECREF(d);
    if (new == NULL)
        return -1;
    int rc = PyObject_SetAttr(obj, name, new);
    Py_DECREF(new);
    return rc;
}

/* getattr(obj, name), which must be a list (new reference) */
static PyObject *
attr_list(PyObject *obj, PyObject *name)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v != NULL && !PyList_Check(v)) {
        PyErr_Format(PyExc_TypeError, "%U must be a list", name);
        Py_CLEAR(v);
    }
    return v;
}

/* The stream's cached block columns and the offset of `position` in
 * them, exactly as BlockRefAt.block(proc, position) resolves them. */
static int
load_block(PyObject *ref_at, PyObject *proc_obj, long long proc,
           PyObject *pos_obj, long long position, PyObject **thinks,
           PyObject **isws, PyObject **addrs, long long *base)
{
    long long cached_proc, end;
    if (attr_as_ll(ref_at, s_proc, &cached_proc) < 0 ||
        attr_as_ll(ref_at, s_base, base) < 0 ||
        attr_as_ll(ref_at, s_end, &end) < 0)
        return -1;
    if (cached_proc != proc || position < *base || position >= end) {
        /* outside the cached block: BlockRefAt.block loads the right one */
        PyObject *res = PyObject_CallMethodObjArgs(ref_at, s_block, proc_obj,
                                                   pos_obj, NULL);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
        if (attr_as_ll(ref_at, s_base, base) < 0)
            return -1;
    }
    if ((*thinks = attr_list(ref_at, s_think)) == NULL)
        return -1;
    if ((*isws = attr_list(ref_at, s_is_write)) == NULL)
        return -1;
    if ((*addrs = attr_list(ref_at, s_addr)) == NULL)
        return -1;
    return 0;
}

/* kernel_drain(node, stream, t_local, deadline) -> (consumed, t_local) */
static PyObject *
drain_call(PyObject *callable, PyObject *const *args, size_t nargsf,
           PyObject *kwnames)
{
    DrainObject *d = (DrainObject *)callable;
    if (PyVectorcall_NARGS(nargsf) != 4 ||
        (kwnames != NULL && PyTuple_GET_SIZE(kwnames) != 0)) {
        PyErr_SetString(PyExc_TypeError,
                        "BatchDrain takes (node, stream, t_local, deadline)");
        return NULL;
    }
    PyObject *node = args[0], *stream = args[1], *t_obj = args[2];
    long long t_local = PyLong_AsLongLong(t_obj);
    if (t_local == -1 && PyErr_Occurred())
        return NULL;
    long long deadline = PyLong_AsLongLong(args[3]);
    if (deadline == -1 && PyErr_Occurred())
        return NULL;

    PyObject *result = NULL;
    PyObject *ref_at = NULL, *pos_obj = NULL, *proc_obj = NULL;
    PyObject *thinks = NULL, *isws = NULL, *addrs = NULL;
    PyObject *cache = NULL, *index = NULL, *sets = NULL, *lines = NULL;
    PyObject *stats = NULL;

    ref_at = PyObject_GetAttr(stream, s_ref_at);
    if (ref_at == NULL)
        return NULL;
    if ((PyObject *)Py_TYPE(ref_at) != d->block_type) {
        /* migrated foreign stream guard: nothing materialised to walk */
        Py_DECREF(ref_at);
        PyObject *zero = PyLong_FromLong(0);
        if (zero == NULL)
            return NULL;
        result = PyTuple_Pack(2, zero, t_obj);
        Py_DECREF(zero);
        return result;
    }

    long long position, proc, base;
    if ((pos_obj = PyObject_GetAttr(stream, s_position)) == NULL)
        goto done;
    position = PyLong_AsLongLong(pos_obj);
    if (position == -1 && PyErr_Occurred())
        goto done;
    if ((proc_obj = PyObject_GetAttr(stream, s_proc_id)) == NULL)
        goto done;
    proc = PyLong_AsLongLong(proc_obj);
    if (proc == -1 && PyErr_Occurred())
        goto done;
    if (load_block(ref_at, proc_obj, proc, pos_obj, position, &thinks, &isws,
                   &addrs, &base) < 0)
        goto done;

    Py_ssize_t n = PyList_GET_SIZE(addrs);
    if (PyList_GET_SIZE(thinks) != n || PyList_GET_SIZE(isws) != n) {
        PyErr_SetString(PyExc_ValueError, "block columns differ in length");
        goto done;
    }
    long long start = position - base;
    if (start < 0 || start > (long long)n) {
        PyErr_Format(PyExc_IndexError,
                     "drain start %lld outside the block [0, %zd]", start, n);
        goto done;
    }

    if ((cache = PyObject_GetAttr(node, s_cache)) == NULL)
        goto done;
    if ((index = PyObject_GetAttr(cache, s_index)) == NULL)
        goto done;
    if (!PyDict_Check(index)) {
        PyErr_SetString(PyExc_TypeError, "SectoredCache._index must be a dict");
        goto done;
    }
    if ((sets = attr_list(cache, s_sets)) == NULL)
        goto done;
    Py_ssize_t n_sets_list = PyList_GET_SIZE(sets);

    const long long sector_bytes = d->sector_bytes, line_bytes = d->line_bytes;
    const long long n_sets = d->n_sets, hit_lat = d->hit_lat;
    PyObject *const invalid = d->invalid, *const dirty = d->dirty;
    Py_ssize_t pos = (Py_ssize_t)start;
    long long read_hits = 0, write_hits = 0;
    /* the last sector looked up: no Python code runs inside the loop, so
     * the index (which holds it) and its line list cannot change, and
     * once touched it stays the MRU of its set until another sector is */
    PyObject *sector = NULL; /* borrowed from index */
    long long sector_id = 0;
    int touched = 0;

    while (pos < n && t_local < deadline) {
        long long think = PyLong_AsLongLong(PyList_GET_ITEM(thinks, pos));
        if (think == -1 && PyErr_Occurred())
            goto done;
        PyObject *w = PyList_GET_ITEM(isws, pos);
        int is_write = w == Py_True ? 1 : w == Py_False ? 0 : PyObject_IsTrue(w);
        if (is_write < 0)
            goto done;
        long long addr = PyLong_AsLongLong(PyList_GET_ITEM(addrs, pos));
        if (addr == -1 && PyErr_Occurred())
            goto done;

        long long sid = floor_div(addr, sector_bytes);
        if (sector == NULL || sid != sector_id) {
            PyObject *key = PyLong_FromLongLong(sid);
            if (key == NULL)
                goto done;
            sector = PyDict_GetItemWithError(index, key);
            Py_DECREF(key);
            if (sector == NULL) {
                if (PyErr_Occurred())
                    goto done;
                break; /* sector absent: miss */
            }
            Py_XDECREF(lines);
            if ((lines = attr_list(sector, s_lines)) == NULL)
                goto done;
            sector_id = sid;
            touched = 0;
        }
        long long li = floor_mod(addr, sector_bytes) / line_bytes;
        if (li >= (long long)PyList_GET_SIZE(lines)) {
            PyErr_SetString(PyExc_IndexError, "line index outside sector");
            goto done;
        }
        PyObject *state = PyList_GET_ITEM(lines, (Py_ssize_t)li); /* borrowed */
        if (is_write ? (state != dirty) : (state == invalid))
            break; /* not a plain hit */

        if (!touched) {
            /* LRU touch == SectoredCache._touch_sector */
            long long set_idx = floor_mod(sid, n_sets);
            if (set_idx >= (long long)n_sets_list) {
                PyErr_SetString(PyExc_IndexError, "cache set outside _sets");
                goto done;
            }
            PyObject *ways = PyList_GET_ITEM(sets, (Py_ssize_t)set_idx);
            if (!PyList_Check(ways)) {
                PyErr_SetString(PyExc_TypeError, "cache set must be a list");
                goto done;
            }
            Py_ssize_t wn = PyList_GET_SIZE(ways);
            if (wn == 0 || PyList_GET_ITEM(ways, wn - 1) != sector) {
                Py_ssize_t j;
                for (j = 0; j < wn; j++) {
                    if (PyList_GET_ITEM(ways, j) == sector)
                        break;
                }
                if (j == wn) {
                    PyErr_SetString(PyExc_RuntimeError,
                                    "resident sector missing from its LRU set");
                    goto done;
                }
                Py_INCREF(sector);
                if (PyList_SetSlice(ways, j, j + 1, NULL) < 0 ||
                    PyList_Append(ways, sector) < 0) {
                    Py_DECREF(sector);
                    goto done;
                }
                Py_DECREF(sector);
            }
            touched = 1;
        }

        if (is_write)
            write_hits++;
        else
            read_hits++;
        t_local += think + hit_lat; /* issue_at = t+think; done = issue+lat */
        pos++;
    }

    long long consumed = (long long)pos - start;
    if (consumed) {
        PyObject *new_pos = PyLong_FromLongLong(position + consumed);
        if (new_pos == NULL)
            goto done;
        int rc = PyObject_SetAttr(stream, s_position, new_pos);
        Py_DECREF(new_pos);
        if (rc < 0 || (stats = PyObject_GetAttr(node, s_stats)) == NULL)
            goto done;
        if (add_to_attr(stats, s_refs, consumed) < 0)
            goto done;
        if (read_hits && (add_to_attr(stats, s_reads, read_hits) < 0 ||
                          add_to_attr(cache, s_read_hits, read_hits) < 0))
            goto done;
        if (write_hits && (add_to_attr(stats, s_writes, write_hits) < 0 ||
                           add_to_attr(cache, s_write_hits, write_hits) < 0))
            goto done;
    }
    result = Py_BuildValue("(LL)", consumed, t_local);

done:
    Py_XDECREF(ref_at);
    Py_XDECREF(pos_obj);
    Py_XDECREF(proc_obj);
    Py_XDECREF(thinks);
    Py_XDECREF(isws);
    Py_XDECREF(addrs);
    Py_XDECREF(cache);
    Py_XDECREF(index);
    Py_XDECREF(sets);
    Py_XDECREF(lines);
    Py_XDECREF(stats);
    return result;
}

static PyObject *
drain_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"block_type", "invalid", "dirty", "hit_lat",
                             "n_sets", "sector_bytes", "line_bytes", NULL};
    PyObject *block_type, *invalid, *dirty;
    long long hit_lat, n_sets, sector_bytes, line_bytes;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!OOLLLL", kwlist,
                                     &PyType_Type, &block_type, &invalid,
                                     &dirty, &hit_lat, &n_sets, &sector_bytes,
                                     &line_bytes))
        return NULL;
    if (n_sets <= 0 || sector_bytes <= 0 || line_bytes <= 0) {
        PyErr_SetString(PyExc_ValueError, "cache geometry must be positive");
        return NULL;
    }
    DrainObject *d = (DrainObject *)type->tp_alloc(type, 0);
    if (d == NULL)
        return NULL;
    d->vectorcall = drain_call;
    Py_INCREF(block_type);
    d->block_type = block_type;
    Py_INCREF(invalid);
    d->invalid = invalid;
    Py_INCREF(dirty);
    d->dirty = dirty;
    d->hit_lat = hit_lat;
    d->n_sets = n_sets;
    d->sector_bytes = sector_bytes;
    d->line_bytes = line_bytes;
    return (PyObject *)d;
}

static void
drain_dealloc(DrainObject *d)
{
    Py_XDECREF(d->block_type);
    Py_XDECREF(d->invalid);
    Py_XDECREF(d->dirty);
    Py_TYPE(d)->tp_free((PyObject *)d);
}

static PyTypeObject DrainType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.kernel._hotloops.BatchDrain",
    .tp_doc = "BatchDrain(block_type, invalid, dirty, hit_lat, n_sets, "
              "sector_bytes, line_bytes)\n\n"
              "Per-machine hit drain: calling it with (node, stream, "
              "t_local, deadline) consumes a run of consecutive cache hits "
              "and returns (consumed, t_local).",
    .tp_basicsize = sizeof(DrainObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_new = drain_new,
    .tp_dealloc = (destructor)drain_dealloc,
    .tp_vectorcall_offset = offsetof(DrainObject, vectorcall),
    .tp_call = PyVectorcall_Call,
};

static struct PyModuleDef hotloops_module = {
    PyModuleDef_HEAD_INIT,
    "_hotloops",
    "Compiled inner loops for the repro kernel (see repro.kernel.compiled).",
    -1,
    NULL,
};

PyMODINIT_FUNC
PyInit__hotloops(void)
{
    struct { PyObject **slot; const char *name; } names[] = {
        {&s_ref_at, "_ref_at"}, {&s_position, "position"},
        {&s_proc_id, "proc_id"}, {&s_proc, "_proc"}, {&s_base, "_base"},
        {&s_end, "_end"}, {&s_think, "_think"}, {&s_is_write, "_is_write"},
        {&s_addr, "_addr"}, {&s_block, "block"}, {&s_cache, "cache"},
        {&s_stats, "stats"}, {&s_index, "_index"}, {&s_sets, "_sets"},
        {&s_lines, "lines"}, {&s_refs, "refs"}, {&s_reads, "reads"},
        {&s_writes, "writes"}, {&s_read_hits, "read_hits"},
        {&s_write_hits, "write_hits"},
    };
    for (size_t i = 0; i < sizeof(names) / sizeof(names[0]); i++) {
        if (*names[i].slot == NULL &&
            (*names[i].slot = PyUnicode_InternFromString(names[i].name)) == NULL)
            return NULL;
    }
    if (PyType_Ready(&DrainType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&hotloops_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&DrainType);
    if (PyModule_AddObject(m, "BatchDrain", (PyObject *)&DrainType) < 0) {
        Py_DECREF(&DrainType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
