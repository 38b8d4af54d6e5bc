/* Compiled hot loops for the `compiled` kernel backend.
 *
 * Two types:
 *
 * BatchDrain, the callable the processor batch loop hands each
 * reference to (``machine.kernel_drain``).  A call walks the stream's
 * materialised block of references and consumes the longest prefix of
 * consecutive cache *hits* (read hit: line CLEAN or DIRTY; write hit:
 * line DIRTY), performing exactly the state updates the interpreter
 * batch loop would — LRU touch per hit, local-time advance by think +
 * cache-hit latency, batch-budget check before every reference, then
 * the stream position and the hit counters in bulk.  It stops, without
 * consuming, at the first reference that is not a plain cache hit (the
 * interpreter then runs the full protocol path for it), so misses, AM
 * accesses, coordination and failures all keep their pure-Python
 * semantics.
 *
 * BlockGen, the block generator a stream's ``BlockRefAt`` calls as
 * ``gen(proc, base, count)``.  It produces the (think, is_write, addr)
 * column lists of references ``base .. base+count-1`` in one scalar
 * loop per workload family (calibrated SPLASH, Zipf KV, scan
 * analytics), reproducing the workload's Python ``ref_at`` bit for
 * bit: every Python-int step is taken mod 2**64 (the scalar code masks
 * with ``& _MASK64``), and every probability test compares a hash
 * field of at most 20 bits, which a double holds exactly, against the
 * same hoisted float threshold.  Built by ``splash_gen``, ``zipf_gen``
 * or ``scan_gen`` from the workload's hoisted constants and tables.
 *
 * Both are called with the vectorcall (fastcall) convention: the
 * arguments arrive as a C array, with no argument tuple to pack or
 * parse.
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

/* ---- block generation ---------------------------------------------- */

typedef unsigned long long u64; /* what the "K" argument format fills */

enum { FAMILY_SPLASH, FAMILY_ZIPF, FAMILY_SCAN };

/* A generator's constants, parsed straight from the factory's keywords */
typedef struct {
    int family;
    Py_ssize_t n_procs;
    u64 *region;        /* per-proc private base: SPLASH private region,
                           Zipf session state, scan accumulator */
    u64 item_bytes;
    u64 h_ref;          /* mix64(seed mix + the family's reference salt) */
    u64 h_think;        /* mix64(seed mix + 0xD17E) */
    long long think_whole;
    double think_thresh, w_thresh;
    /* calibrated SPLASH: op class and the windowed private _pick_addr */
    double sw_thresh, sr_thresh;
    u64 priv_n_items, pw_window, pr_window, pw_blklen, h_pw, h_pr, h_pwb, h_prb;
    PyObject *shared_addr; /* the workload's _shared_addr; NULL: Water's */
    u64 seed_mix, rpp, iterations, forces, forces_items, slice_items;
    /* Zipf KV: sessions and the inverse CDF */
    double sf_thresh;
    u64 clients, session_items, store;
    double *cdf;
    u64 *perm;
    Py_ssize_t n_keys;
    /* scan analytics */
    u64 table, table_items, stride, acc_items;
    int table_writes;
} GenParams;

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    GenParams p;
} GenObject;

/* SplitMix64 finalizer (== repro.workloads.base.mix64) */
static inline u64
mix64(u64 x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* Workload._pick_addr with the salt's two seed mixes precomputed:
 * hs = mix64(seed mix + salt), hb = mix64(seed mix + (salt ^ 0x5A5A));
 * pk is proc << 40 */
static inline u64
pick_addr(u64 hs, u64 hb, u64 pk, u64 index, u64 base, u64 n_items,
          u64 item_bytes, u64 block_len, u64 window)
{
    u64 h = mix64(hs ^ pk ^ index);
    u64 slot = h % (window < n_items ? window : n_items);
    u64 bh = mix64(hb ^ pk ^ (index / block_len));
    u64 item = mix64(bh + slot) % n_items;
    return base + item * item_bytes + (((h >> 32) % item_bytes) & ~3ULL);
}

/* Water._shared_addr; h40 is the reference hash >> 40 */
static inline u64
water_shared(const GenParams *g, u64 proc, u64 pk, u64 index, u64 h40)
{
    u64 iteration = index * g->iterations / g->rpp;
    u64 salt, base, n_items, window;
    if (h40 % 100 < 80) {
        /* mostly this process's slice of the force array */
        salt = 0xF0CE + iteration;
        base = g->forces +
            (proc * g->slice_items % g->forces_items) * g->item_bytes;
        n_items = g->slice_items;
        window = 16;
    } else {
        salt = 0xF1CE + iteration;
        base = g->forces;
        n_items = g->forces_items;
        window = 12;
    }
    return pick_addr(mix64(g->seed_mix + salt),
                     mix64(g->seed_mix + (salt ^ 0x5A5A)), pk, index, base,
                     n_items, g->item_bytes, 4096, window);
}

/* _CalibratedWorkload.ref_at's address; a new reference, NULL on error */
static PyObject *
splash_addr(const GenParams *g, PyObject *proc_obj, u64 proc, u64 pk,
            u64 index, u64 h, int is_write)
{
    double h_class = (double)((h >> 20) & 0xFFFFF);
    if (h_class < (is_write ? g->sw_thresh : g->sr_thresh)) {
        if (g->shared_addr == NULL)
            return PyLong_FromUnsignedLongLong(
                water_shared(g, proc, pk, index, h >> 40));
        /* the shared minority of Barnes, Cholesky and Mp3d: the
         * workload's pure _shared_addr(proc, index, is_write, h >> 40) */
        PyObject *args[4] = {proc_obj, PyLong_FromUnsignedLongLong(index),
                             is_write ? Py_True : Py_False,
                             PyLong_FromUnsignedLongLong(h >> 40)};
        PyObject *res = NULL;
        if (args[1] != NULL && args[3] != NULL)
            res = PyObject_Vectorcall(g->shared_addr, args, 4, NULL);
        Py_XDECREF(args[1]);
        Py_XDECREF(args[3]);
        return res;
    }
    u64 base = g->region[proc];
    return PyLong_FromUnsignedLongLong(
        is_write ? pick_addr(g->h_pw, g->h_pwb, pk, index, base,
                             g->priv_n_items, g->item_bytes, g->pw_blklen,
                             g->pw_window)
                 : pick_addr(g->h_pr, g->h_prb, pk, index, base,
                             g->priv_n_items, g->item_bytes, 4096,
                             g->pr_window));
}

/* ZipfKV.ref_at's address */
static PyObject *
zipf_addr(const GenParams *g, u64 proc, u64 index, u64 h)
{
    if ((double)((h >> 20) & 0xFFFFF) < g->sf_thresh) {
        /* session touch: this client's private state */
        u64 client = index % g->clients;
        u64 slot = (h >> 40) % g->session_items;
        return PyLong_FromUnsignedLongLong(
            g->region[proc] +
            (client * g->session_items + slot) * g->item_bytes);
    }
    /* KV op: bisect_left over the CDF, scatter the rank over the store */
    double u = (double)((h >> 11) & ((1ULL << 53) - 1)) / 9007199254740992.0;
    Py_ssize_t lo = 0, hi = g->n_keys;
    while (lo < hi) {
        Py_ssize_t mid = lo + (hi - lo) / 2;
        if (g->cdf[mid] < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo >= g->n_keys)
        return PyErr_Format(PyExc_IndexError,
                            "Zipf rank %zd outside the %zd-key table", lo,
                            g->n_keys);
    return PyLong_FromUnsignedLongLong(g->store + g->perm[lo] * g->item_bytes);
}

/* ScanAnalytics.ref_at's address */
static PyObject *
scan_addr(const GenParams *g, u64 proc, u64 index, u64 h, int is_write)
{
    if (is_write && !g->table_writes)
        /* aggregation state: private accumulator slot */
        return PyLong_FromUnsignedLongLong(
            g->region[proc] + ((h >> 24) % g->acc_items) * g->item_bytes);
    /* (start + index * stride) % table_items, with both factors reduced
     * first: table_items < 2**32 keeps the product inside 64 bits */
    u64 t = g->table_items;
    u64 start = proc * t / (u64)g->n_procs;
    u64 item = (start + (index % t) * (g->stride % t) % t) % t;
    return PyLong_FromUnsignedLongLong(g->table + item * g->item_bytes);
}

/* gen(proc, base, count) -> (think, is_write, addr) */
static PyObject *
gen_call(PyObject *callable, PyObject *const *args, size_t nargsf,
         PyObject *kwnames)
{
    const GenParams *g = &((GenObject *)callable)->p;
    if (PyVectorcall_NARGS(nargsf) != 3 ||
        (kwnames != NULL && PyTuple_GET_SIZE(kwnames) != 0)) {
        PyErr_SetString(PyExc_TypeError, "BlockGen takes (proc, base, count)");
        return NULL;
    }
    long long proc = PyLong_AsLongLong(args[0]);
    if (proc == -1 && PyErr_Occurred())
        return NULL;
    long long base = PyLong_AsLongLong(args[1]);
    if (base == -1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t count = PyLong_AsSsize_t(args[2]);
    if (count == -1 && PyErr_Occurred())
        return NULL;
    if (proc < 0 || proc >= (long long)g->n_procs)
        return PyErr_Format(PyExc_IndexError, "proc %lld outside [0, %zd)",
                            proc, g->n_procs);
    if (base < 0 || count < 1)
        return PyErr_Format(PyExc_ValueError,
                            "block needs base >= 0 and count >= 1, "
                            "got (%lld, %zd)", base, count);

    PyObject *thinks = PyList_New(count), *isws = PyList_New(count);
    PyObject *addrs = PyList_New(count), *result = NULL;
    if (thinks == NULL || isws == NULL || addrs == NULL)
        goto done;
    const u64 p = (u64)proc, pk = p << 40;
    for (Py_ssize_t i = 0; i < count; i++) {
        u64 index = (u64)base + (u64)i, pi = pk ^ index;
        u64 h = mix64(g->h_ref ^ pi);
        int is_write = (double)(h & 0xFFFFF) < g->w_thresh;
        PyObject *addr =
            g->family == FAMILY_SPLASH
                ? splash_addr(g, args[0], p, pk, index, h, is_write)
            : g->family == FAMILY_ZIPF ? zipf_addr(g, p, index, h)
                                       : scan_addr(g, p, index, h, is_write);
        if (addr == NULL)
            goto done;
        PyList_SET_ITEM(addrs, i, addr);
        PyObject *w = is_write ? Py_True : Py_False;
        Py_INCREF(w);
        PyList_SET_ITEM(isws, i, w);
        /* Workload._think against the hoisted 16-bit dither threshold */
        u64 ht = mix64(g->h_think ^ pi);
        PyObject *think = PyLong_FromLongLong(
            g->think_whole + ((double)(ht & 0xFFFF) < g->think_thresh));
        if (think == NULL)
            goto done;
        PyList_SET_ITEM(thinks, i, think);
    }
    result = PyTuple_Pack(3, thinks, isws, addrs);

done:
    /* a list's unset items are NULL, which its dealloc skips */
    Py_XDECREF(thinks);
    Py_XDECREF(isws);
    Py_XDECREF(addrs);
    return result;
}

static void
params_free(GenParams *p)
{
    PyMem_Free(p->region);
    PyMem_Free(p->cdf);
    PyMem_Free(p->perm);
    Py_CLEAR(p->shared_addr);
}

static void
gen_dealloc(GenObject *g)
{
    params_free(&g->p);
    Py_TYPE(g)->tp_free((PyObject *)g);
}

static PyTypeObject GenType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.kernel._hotloops.BlockGen",
    .tp_doc = "A workload's block generator (built by splash_gen, zipf_gen "
              "or scan_gen): calling it with (proc, base, count) returns the "
              "(think, is_write, addr) lists of references base..base+count-1.",
    .tp_basicsize = sizeof(GenObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_dealloc = (destructor)gen_dealloc,
    .tp_vectorcall_offset = offsetof(GenObject, vectorcall),
    .tp_call = PyVectorcall_Call,
};

/* `seq` as a new PyMem array of u64 (as_double: of double), its length
 * in *n; NULL with an exception on error */
static void *
c_array(PyObject *seq, const char *what, int as_double, Py_ssize_t *n)
{
    PyObject *fast = PySequence_Fast(seq, what);
    if (fast == NULL)
        return NULL;
    *n = PySequence_Fast_GET_SIZE(fast);
    /* one spare slot: PyMem_Malloc(0) may return NULL */
    void *out = PyMem_Malloc((*n + 1) * (as_double ? sizeof(double)
                                                   : sizeof(u64)));
    if (out == NULL)
        PyErr_NoMemory();
    for (Py_ssize_t i = 0; out != NULL && i < *n; i++) {
        PyObject *item = PySequence_Fast_GET_ITEM(fast, i);
        int bad = as_double
            ? (((double *)out)[i] = PyFloat_AsDouble(item)) == -1.0
            : (((u64 *)out)[i] = PyLong_AsUnsignedLongLong(item)) == (u64)-1;
        if (bad && PyErr_Occurred()) {
            PyMem_Free(out);
            out = NULL;
        }
    }
    Py_DECREF(fast);
    return out;
}

/* ValueError naming the first zero of n divisors: -1; else 0 */
static int
check_positive(int n, const char *const *names, const u64 *values)
{
    for (int i = 0; i < n; i++) {
        if (values[i] == 0) {
            PyErr_Format(PyExc_ValueError, "%s must be positive", names[i]);
            return -1;
        }
    }
    return 0;
}

/* The generator over `p` and the per-proc `region` bases; p's arrays and
 * callback pass to it, or are freed on failure. */
static PyObject *
gen_new(GenParams *p, PyObject *region)
{
    p->region = c_array(region, "region must be a sequence", 0, &p->n_procs);
    if (p->region != NULL && p->n_procs == 0)
        PyErr_SetString(PyExc_ValueError, "need one region per process");
    else if (p->region != NULL) {
        GenObject *g = PyObject_New(GenObject, &GenType);
        if (g != NULL) {
            g->vectorcall = gen_call;
            g->p = *p;
            return (PyObject *)g;
        }
    }
    params_free(p);
    return NULL;
}

static PyObject *
splash_gen(PyObject *module, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "private", "item_bytes", "h_ref", "h_think", "think_whole",
        "think_thresh", "w_thresh", "sw_thresh", "sr_thresh", "priv_n_items",
        "pw_window", "pr_window", "pw_blklen", "h_pw", "h_pr", "h_pwb",
        "h_prb", "shared_addr", "seed_mix", "rpp", "iterations", "forces",
        "forces_items", "slice_items", NULL};
    GenParams p = {.family = FAMILY_SPLASH, .rpp = 1, .iterations = 1,
                   .forces_items = 1, .slice_items = 1};
    PyObject *region;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "OKKKLddddKKKKKKKKO|KKKKKK:splash_gen", kwlist,
            &region, &p.item_bytes, &p.h_ref, &p.h_think, &p.think_whole,
            &p.think_thresh, &p.w_thresh, &p.sw_thresh, &p.sr_thresh,
            &p.priv_n_items, &p.pw_window, &p.pr_window, &p.pw_blklen,
            &p.h_pw, &p.h_pr, &p.h_pwb, &p.h_prb, &p.shared_addr,
            &p.seed_mix, &p.rpp, &p.iterations, &p.forces, &p.forces_items,
            &p.slice_items))
        return NULL;
    static const char *const names[] = {
        "item_bytes", "priv_n_items", "pw_window", "pr_window", "pw_blklen",
        "rpp", "forces_items", "slice_items"};
    const u64 divisors[] = {p.item_bytes, p.priv_n_items, p.pw_window,
                            p.pr_window, p.pw_blklen, p.rpp, p.forces_items,
                            p.slice_items};
    if (check_positive(8, names, divisors) < 0)
        return NULL;
    if (p.shared_addr == Py_None)
        p.shared_addr = NULL;
    else if (!PyCallable_Check(p.shared_addr))
        return PyErr_Format(PyExc_TypeError,
                            "shared_addr must be callable or None");
    else
        Py_INCREF(p.shared_addr);
    return gen_new(&p, region);
}

static PyObject *
zipf_gen(PyObject *module, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "sessions", "item_bytes", "h_ref", "h_think", "think_whole",
        "think_thresh", "w_thresh", "sf_thresh", "clients_per_proc",
        "session_items_per_client", "store", "cdf", "perm", NULL};
    GenParams p = {.family = FAMILY_ZIPF};
    PyObject *region, *cdf, *perm;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "OKKKLdddKKKOO:zipf_gen", kwlist, &region,
            &p.item_bytes, &p.h_ref, &p.h_think, &p.think_whole,
            &p.think_thresh, &p.w_thresh, &p.sf_thresh, &p.clients,
            &p.session_items, &p.store, &cdf, &perm))
        return NULL;
    static const char *const names[] = {
        "item_bytes", "clients_per_proc", "session_items_per_client"};
    const u64 divisors[] = {p.item_bytes, p.clients, p.session_items};
    if (check_positive(3, names, divisors) < 0)
        return NULL;
    Py_ssize_t n_perm = 0;
    if ((p.cdf = c_array(cdf, "cdf must be a sequence", 1, &p.n_keys)) != NULL &&
        (p.perm = c_array(perm, "perm must be a sequence", 0, &n_perm)) != NULL) {
        if (p.n_keys == 0)
            PyErr_SetString(PyExc_ValueError, "cdf must not be empty");
        else if (n_perm != p.n_keys)
            PyErr_Format(PyExc_ValueError, "perm has %zd entries, cdf %zd",
                         n_perm, p.n_keys);
        else
            return gen_new(&p, region);
    }
    params_free(&p);
    return NULL;
}

static PyObject *
scan_gen(PyObject *module, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "acc", "item_bytes", "h_ref", "h_think", "think_whole",
        "think_thresh", "w_thresh", "table", "table_items", "stride_items",
        "accumulator_items", "table_writes", NULL};
    GenParams p = {.family = FAMILY_SCAN};
    PyObject *region;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "OKKKLddKKKKp:scan_gen", kwlist, &region,
            &p.item_bytes, &p.h_ref, &p.h_think, &p.think_whole,
            &p.think_thresh, &p.w_thresh, &p.table, &p.table_items,
            &p.stride, &p.acc_items, &p.table_writes))
        return NULL;
    static const char *const names[] = {
        "item_bytes", "table_items", "accumulator_items"};
    const u64 divisors[] = {p.item_bytes, p.table_items, p.acc_items};
    if (check_positive(3, names, divisors) < 0)
        return NULL;
    if (p.table_items >= (1ULL << 32))
        return PyErr_Format(PyExc_ValueError,
                            "table_items must be below 2**32");
    return gen_new(&p, region);
}

static PyMethodDef hotloops_methods[] = {
    {"splash_gen", (PyCFunction)(void (*)(void))splash_gen,
     METH_VARARGS | METH_KEYWORDS,
     "The BlockGen of a calibrated SPLASH workload (shared_addr=None: "
     "Water's shared path in C)."},
    {"zipf_gen", (PyCFunction)(void (*)(void))zipf_gen,
     METH_VARARGS | METH_KEYWORDS, "The BlockGen of a Zipf KV workload."},
    {"scan_gen", (PyCFunction)(void (*)(void))scan_gen,
     METH_VARARGS | METH_KEYWORDS,
     "The BlockGen of a scan-analytics workload."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef hotloops_module = {
    PyModuleDef_HEAD_INIT,
    "_hotloops",
    "Compiled inner loops for the repro kernel (see repro.kernel.compiled).",
    -1,
    hotloops_methods,
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
    if (PyType_Ready(&DrainType) < 0 || PyType_Ready(&GenType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&hotloops_module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddObjectRef(m, "BatchDrain", (PyObject *)&DrainType) < 0 ||
        PyModule_AddObjectRef(m, "BlockGen", (PyObject *)&GenType) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
