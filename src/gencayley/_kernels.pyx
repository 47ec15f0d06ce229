# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled kernels for the exhaustive bitmask scans.

Mirrors the API and semantics of ``_kernels_py``; see that module for the
documentation. These loops dominate the runtime of the brute-force oracles
and the equivalence sweeps, hence the C versions.
"""

from libc.stdint cimport int64_t, uint64_t
from libc.stdlib cimport free, malloc
from libc.string cimport memset

cdef extern from *:
    int __builtin_popcountll(unsigned long long) nogil


cdef uint64_t* _copy_u64(object seq, Py_ssize_t size) except NULL:
    cdef uint64_t* buf = <uint64_t*> malloc(size * sizeof(uint64_t))
    if buf == NULL:
        raise MemoryError()
    cdef Py_ssize_t i
    for i in range(size):
        buf[i] = <uint64_t> seq[i]
    return buf


cdef int* _copy_int(object seq, Py_ssize_t size) except NULL:
    cdef int* buf = <int*> malloc(size * sizeof(int))
    if buf == NULL:
        raise MemoryError()
    cdef Py_ssize_t i
    for i in range(size):
        buf[i] = <int> seq[i]
    return buf


def scan_codes(object nbr_masks, int kind):
    cdef int n = len(nbr_masks)
    if n > 30:
        raise ValueError("scan_codes handles at most 30 vertices")
    cdef uint64_t* nbr = _copy_u64(nbr_masks, n)
    cdef uint64_t total = (<uint64_t> 1) << n
    cdef uint64_t xm
    cdef int v, c, ok
    out = []
    try:
        for xm in range(total):
            ok = 1
            for v in range(n):
                c = __builtin_popcountll(nbr[v] & xm)
                if kind == 1:
                    if c != 1:
                        ok = 0
                        break
                elif (xm >> v) & 1:
                    if c != 0:
                        ok = 0
                        break
                elif c != 1:
                    ok = 0
                    break
            if ok:
                out.append(xm)
    finally:
        free(nbr)
    return out


def scan_subgroup_codes(object trans_masks, int num_orbits, object h_masks, int n, int kind):
    cdef int m = num_orbits
    cdef int k = len(h_masks)
    if m > 25:
        raise ValueError("scan_subgroup_codes handles at most 25 orbits")
    cdef uint64_t* trans = _copy_u64(trans_masks, m * n)
    cdef uint64_t* hm = _copy_u64(h_masks, k)
    cdef int64_t* res = <int64_t*> malloc(k * sizeof(int64_t))
    cdef uint64_t* nbr = <uint64_t*> malloc(n * sizeof(uint64_t))
    if res == NULL or nbr == NULL:
        free(trans); free(hm); free(res); free(nbr)
        raise MemoryError()
    cdef uint64_t total = (<uint64_t> 1) << m
    cdef uint64_t sm, h
    cdef int i, o, v, c, ok, undecided
    try:
        for i in range(k):
            res[i] = -1
        undecided = k
        for sm in range(total):
            memset(nbr, 0, n * sizeof(uint64_t))
            for o in range(m):
                if (sm >> o) & 1:
                    for v in range(n):
                        nbr[v] |= trans[o * n + v]
            for i in range(k):
                if res[i] != -1:
                    continue
                h = hm[i]
                ok = 1
                for v in range(n):
                    c = __builtin_popcountll(nbr[v] & h)
                    if kind == 1:
                        if c != 1:
                            ok = 0
                            break
                    elif (h >> v) & 1:
                        if c != 0:
                            ok = 0
                            break
                    elif c != 1:
                        ok = 0
                        break
                if ok:
                    res[i] = <int64_t> sm
                    undecided -= 1
            if undecided == 0:
                break
        return [res[i] for i in range(k)]
    finally:
        free(trans)
        free(hm)
        free(res)
        free(nbr)


def scan_check_routes(int n, object mul_flat, object inv_perm, object alpha_perm,
                     object s_elems, object nbr_masks, object x_masks):
    cdef int r = len(s_elems)
    cdef int* mul = _copy_int(mul_flat, n * n)
    cdef int* inv = _copy_int(inv_perm, n)
    cdef int* alpha = _copy_int(alpha_perm, n)
    cdef int* sel = _copy_int(s_elems, r) if r else <int*> malloc(sizeof(int))
    cdef uint64_t* nbr = _copy_u64(nbr_masks, n)
    cdef int* xs = <int*> malloc(n * sizeof(int))
    if sel == NULL or xs == NULL:
        free(mul); free(inv); free(alpha); free(nbr)
        raise MemoryError()

    cdef uint64_t full = (~(<uint64_t> 0)) >> (64 - n)
    cdef uint64_t not_e = ~(<uint64_t> 1)
    cdef uint64_t smask = 0, ss_inv = 0
    cdef uint64_t xm, ax, union_tr, t, p1, p2, low, aa
    cdef int i, j, v, c, a, b, s, sizex, disjoint_sum
    cdef int row_ia, row_aia
    cdef bint amo_g, dom_g, ind_g, out_one, all_one
    cdef bint amo_tr, amo_ps, dom_tr, ind_alg, pc_part, pc_alg, tpc_part, tpc_alg
    cdef int verdict

    for i in range(r):
        smask |= (<uint64_t> 1) << sel[i]
    for i in range(r):
        for j in range(r):
            ss_inv |= (<uint64_t> 1) << mul[sel[i] * n + inv[sel[j]]]

    out = []
    try:
        for xm_obj in x_masks:
            xm = <uint64_t> xm_obj
            sizex = 0
            ax = 0
            aa = xm
            while aa:
                low = aa & (~aa + 1)
                v = __builtin_popcountll(low - 1)
                aa ^= low
                xs[sizex] = v
                sizex += 1
                ax |= (<uint64_t> 1) << alpha[v]

            union_tr = 0
            disjoint_sum = 0
            for i in range(r):
                s = sel[i]
                t = 0
                aa = ax
                while aa:
                    low = aa & (~aa + 1)
                    a = __builtin_popcountll(low - 1)
                    aa ^= low
                    t |= (<uint64_t> 1) << mul[a * n + s]
                union_tr |= t
                disjoint_sum += sizex

            p1 = 0
            p2 = 0
            for i in range(sizex):
                a = xs[i]
                row_ia = inv[a] * n
                row_aia = alpha[inv[a]] * n
                for j in range(sizex):
                    b = xs[j]
                    p1 |= (<uint64_t> 1) << alpha[mul[row_ia + b]]
                    p2 |= (<uint64_t> 1) << mul[row_aia + b]

            amo_g = True
            dom_g = True
            ind_g = True
            out_one = True
            all_one = True
            for v in range(n):
                c = __builtin_popcountll(nbr[v] & xm)
                if c > 1:
                    amo_g = False
                if (xm >> v) & 1:
                    if c != 0:
                        ind_g = False
                else:
                    if c == 0:
                        dom_g = False
                    if c != 1:
                        out_one = False
                if c != 1:
                    all_one = False

            amo_tr = disjoint_sum == __builtin_popcountll(union_tr)
            amo_ps = (p1 & ss_inv & not_e) == 0
            dom_tr = (full & ~xm & ~union_tr) == 0
            ind_alg = (p2 & smask) == 0
            pc_part = sizex * (r + 1) == n and (xm | union_tr) == full
            pc_alg = sizex * (r + 1) == n and ind_alg and amo_ps
            tpc_part = sizex * r == n and union_tr == full
            tpc_alg = sizex * r == n and amo_ps

            verdict = 0
            if amo_g:
                verdict |= 1 << 0
            if amo_tr:
                verdict |= 1 << 1
            if amo_ps:
                verdict |= 1 << 2
            if dom_g:
                verdict |= 1 << 3
            if dom_tr:
                verdict |= 1 << 4
            if ind_g:
                verdict |= 1 << 5
            if ind_alg:
                verdict |= 1 << 6
            if ind_g and out_one:
                verdict |= 1 << 7
            if pc_part:
                verdict |= 1 << 8
            if pc_alg:
                verdict |= 1 << 9
            if all_one:
                verdict |= 1 << 10
            if tpc_part:
                verdict |= 1 << 11
            if tpc_alg:
                verdict |= 1 << 12
            out.append(verdict)
        return out
    finally:
        free(mul)
        free(inv)
        free(alpha)
        free(sel)
        free(nbr)
        free(xs)
