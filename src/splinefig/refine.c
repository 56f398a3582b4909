/* refine_contact's best-first search of two Bezier fits, compiled.
 *
 * splinefig.surface builds this file with the system C compiler the
 * first time a process reaches the search, and calls refine_search
 * through ctypes.  Every float operation is the Python loop's
 * (surface._piece, surface._halves and surface._best_first), in the
 * same order, so the two give the same bits:
 *
 *  - box diagonals and heap keys come from py_hypot, a port of CPython's
 *    math.hypot for two arguments (vector_norm of Python 3.11: frexp
 *    scaling, Veltkamp split, compensated sums and one correction step;
 *    Borges, "An Improved Algorithm for hypot(a,b)", arXiv:1904.09481),
 *    with the subnormal branch of the Python that builds it, which sets
 *    HYPOT_DIVIDES_BY_MAX to 1 before 3.12.  The C library's hypot rounds
 *    differently;
 *  - the heap is heapq's: _siftdown, and _siftup moving the smaller
 *    child up to a leaf before sifting down, with keys compared as
 *    tuples compare, so the pops come in heapq's order even when a key
 *    is NaN.
 *
 * Build with -ffp-contract=off and without -ffast-math: no a*b + c may
 * be fused or reordered.
 */

#include <float.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>

/* A search's memory is mapped for it and unmapped after it: blocks this
 * size freed to malloc stay resident in each pool thread's arena. */
static void *grab(size_t bytes)
{
    void *p = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    return p == MAP_FAILED ? NULL : p;
}

static void release(void *p, size_t bytes)
{
    munmap(p, bytes);
}
#else
static void *grab(size_t bytes)
{
    return malloc(bytes);
}

static void release(void *p, size_t bytes)
{
    (void)bytes;
    free(p);
}
#endif

typedef struct {
    double hi, lo;
} DoubleLength;

static DoubleLength dl_fast_sum(double a, double b)
{
    double x = a + b;
    double y = (a - x) + b;
    return (DoubleLength){x, y};
}

static DoubleLength dl_split(double x)
{
    double t = x * 134217729.0; /* Veltkamp constant, 2**27 + 1 */
    double hi = t - (t - x);
    double lo = x - hi;
    return (DoubleLength){hi, lo};
}

static DoubleLength dl_mul(double x, double y)
{
    DoubleLength xx = dl_split(x);
    DoubleLength yy = dl_split(y);
    double p = xx.hi * yy.hi;
    double q = xx.hi * yy.lo + xx.lo * yy.hi;
    double z = p + q;
    double zz = p - z + q + xx.lo * yy.lo;
    return (DoubleLength){z, zz};
}

/* the norm of (x, y), both finite, non-negative and at most max */
static double vector_norm(double x, double y, double max)
{
    double vec[2] = {x, y};
    double h, scale, csum = 1.0, frac1 = 0.0, frac2 = 0.0;
    DoubleLength pr, sm;
    int max_e, i;

    if (max == 0.0)
        return max;
    frexp(max, &max_e);
    if (max_e < -1023) {
        /* ldexp(1.0, -max_e) would overflow */
#if HYPOT_DIVIDES_BY_MAX
        /* CPython 3.10 and 3.11: divide by max instead of scaling */
        for (i = 0; i < 2; i++) {
            double v = vec[i] / max;
            double old = csum;
            v = v * v;
            csum += v;
            frac1 += (old - csum) + v;
        }
        return max * sqrt(csum - 1.0 + frac1);
#else
        /* CPython 3.12 on: make subnormals normal */
        return DBL_MIN * vector_norm(x / DBL_MIN, y / DBL_MIN, max / DBL_MIN);
#endif
    }
    scale = ldexp(1.0, -max_e);
    for (i = 0; i < 2; i++) {
        double v = vec[i] * scale; /* lossless scaling */
        pr = dl_mul(v, v);         /* lossless squaring */
        sm = dl_fast_sum(csum, pr.hi);
        csum = sm.hi;
        frac1 += pr.lo;
        frac2 += sm.lo;
    }
    h = sqrt(csum - 1.0 + (frac1 + frac2));
    pr = dl_mul(-h, h);
    sm = dl_fast_sum(csum, pr.hi);
    csum = sm.hi;
    frac1 += pr.lo;
    frac2 += sm.lo;
    h += (csum - 1.0 + (frac1 + frac2)) / (2.0 * h); /* correction */
    return h / scale;
}

/* math.hypot(x, y), bit for bit */
double py_hypot(double x, double y)
{
    double max = 0.0;
    x = fabs(x);
    y = fabs(y);
    if (x > max)
        max = x;
    if (y > max)
        max = y;
    if (isinf(max))
        return max;
    if (isnan(x) || isnan(y))
        return NAN;
    return vector_norm(x, y, max);
}

/* surface._piece's list: v[0:8] the control coordinates, v[8:12] their
 * box (xmin, ymin, xmax, ymax), v[12] its diagonal; half is the index
 * of the first of its halves once split, else -1 */
typedef struct {
    double v[13];
    long half;
} Piece;

static void make_piece(Piece *p, double x0, double y0, double x1, double y1,
                       double x2, double y2, double x3, double y3)
{
    double xmin, ymin, xmax, ymax;
    xmin = x1 < x0 ? x1 : x0;
    xmin = x2 < xmin ? x2 : xmin;
    xmin = x3 < xmin ? x3 : xmin;
    ymin = y1 < y0 ? y1 : y0;
    ymin = y2 < ymin ? y2 : ymin;
    ymin = y3 < ymin ? y3 : ymin;
    xmax = x1 > x0 ? x1 : x0;
    xmax = x2 > xmax ? x2 : xmax;
    xmax = x3 > xmax ? x3 : xmax;
    ymax = y1 > y0 ? y1 : y0;
    ymax = y2 > ymax ? y2 : ymax;
    ymax = y3 > ymax ? y3 : ymax;
    double v[13] = {x0, y0, x1, y1, x2, y2, x3, y3, xmin, ymin, xmax, ymax,
                    py_hypot(xmax - xmin, ymax - ymin)};
    memcpy(p->v, v, sizeof v);
    p->half = -1;
}

/* surface._halves: piece k split at t = 1/2 into pieces n and n + 1 */
static void split(Piece *pieces, long k, long n)
{
    const double *p = pieces[k].v;
    double x0 = p[0], y0 = p[1], x1 = p[2], y1 = p[3];
    double x2 = p[4], y2 = p[5], x3 = p[6], y3 = p[7];
    double qx0 = x0 + (x1 - x0) * 0.5;
    double qy0 = y0 + (y1 - y0) * 0.5;
    double qx1 = x1 + (x2 - x1) * 0.5;
    double qy1 = y1 + (y2 - y1) * 0.5;
    double qx2 = x2 + (x3 - x2) * 0.5;
    double qy2 = y2 + (y3 - y2) * 0.5;
    double rx0 = qx0 + (qx1 - qx0) * 0.5;
    double ry0 = qy0 + (qy1 - qy0) * 0.5;
    double rx1 = qx1 + (qx2 - qx1) * 0.5;
    double ry1 = qy1 + (qy2 - qy1) * 0.5;
    double sx = rx0 + (rx1 - rx0) * 0.5;
    double sy = ry0 + (ry1 - ry0) * 0.5;
    make_piece(&pieces[n], x0, y0, qx0, qy0, rx0, ry0, sx, sy);
    make_piece(&pieces[n + 1], sx, sy, rx1, ry1, qx2, qy2, x3, y3);
    pieces[k].half = n;
}

/* a heap entry: the key (gap, dist, tick) and the pair's pieces */
typedef struct {
    double gap, dist;
    long tick, a, b;
} Entry;

/* (gap, dist, tick) < (gap, dist, tick) as Python's tuples compare */
static int less(const Entry *x, const Entry *y)
{
    if (!(x->gap == y->gap))
        return x->gap < y->gap;
    if (!(x->dist == y->dist))
        return x->dist < y->dist;
    return x->tick < y->tick;
}

/* heapq._siftdown */
static void sift_down(Entry *heap, long start, long pos)
{
    Entry item = heap[pos];
    while (pos > start) {
        long parent = (pos - 1) >> 1;
        if (!less(&item, &heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

/* heapq._siftup */
static void sift_up(Entry *heap, long end, long pos)
{
    long start = pos;
    Entry item = heap[pos];
    long child = 2 * pos + 1;
    while (child < end) {
        if (child + 1 < end && !less(&heap[child], &heap[child + 1]))
            child++;
        heap[pos] = heap[child];
        pos = child;
        child = 2 * pos + 1;
    }
    heap[pos] = item;
    sift_down(heap, start, pos);
}

/* heapq.heappush of pieces a and b keyed as surface._best_first keys them */
static void push(Entry *heap, long *size, long *tick, const Piece *pieces,
                 long a, long b, double sx, double sy)
{
    const double *pa = pieces[a].v, *pb = pieces[b].v;
    /* the boxes' gap */
    double dx = pa[8] - pb[10], ex = pb[8] - pa[10];
    double dy = pa[9] - pb[11], ey = pb[9] - pa[11];
    dx = ex > dx ? ex : dx;
    dy = ey > dy ? ey : dy;
    dx = 0.0 > dx ? 0.0 : dx;
    dy = 0.0 > dy ? 0.0 : dy;
    /* the seed's distance to the boxes' overlap */
    double lo = pa[8] > pb[8] ? pa[8] : pb[8];
    double hi = pa[10] < pb[10] ? pa[10] : pb[10];
    double fx = lo - sx > sx - hi ? lo - sx : sx - hi;
    lo = pa[9] > pb[9] ? pa[9] : pb[9];
    hi = pa[11] < pb[11] ? pa[11] : pb[11];
    double fy = lo - sy > sy - hi ? lo - sy : sy - hi;
    fx = 0.0 > fx ? 0.0 : fx;
    fy = 0.0 > fy ? 0.0 : fy;
    Entry e = {py_hypot(dx, dy), py_hypot(fx, fy), (*tick)++, a, b};
    heap[*size] = e;
    sift_down(heap, 0, (*size)++);
}

/* heapq.heappop */
static Entry pop(Entry *heap, long *size)
{
    Entry last = heap[--*size];
    if (*size == 0)
        return last;
    Entry top = heap[0];
    heap[0] = last;
    sift_up(heap, *size, 0);
    return top;
}

/* surface._best_first on the na pieces of ctrl_a and the nb of ctrl_b,
 * eight control coordinates each, with the seed (sx, sy): at most
 * budget pops.  Returns 1 when a pair of leaves pops, with its two
 * pieces' 13 values in out[0:13] and out[13:26] and its gap in out[26];
 * 0 when none does; -1 when memory runs out.  *npieces is the count of
 * pieces made, the initial ones and two for each split. */
int refine_search(const double *ctrl_a, long na, const double *ctrl_b, long nb,
                  double sx, double sy, double tol, long budget, double *out,
                  long *npieces)
{
    /* each pop splits at most one piece and pushes two pairs */
    size_t piece_bytes = (size_t)(na + nb + 2 * budget) * sizeof(Piece);
    size_t bytes = piece_bytes + (size_t)(na * nb + 2 * budget) * sizeof(Entry);
    Piece *pieces = grab(bytes);
    Entry *heap = (Entry *)((char *)pieces + piece_bytes);
    long n = 0, size = 0, tick = 0, k;
    int found = 0;

    if (pieces == NULL)
        return -1;
    for (k = 0; k < na + nb; k++) {
        const double *c = k < na ? ctrl_a + 8 * k : ctrl_b + 8 * (k - na);
        make_piece(&pieces[n++], c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]);
    }
    for (k = 0; k < na * nb; k++)
        push(heap, &size, &tick, pieces, k / nb, na + k % nb, sx, sy);
    for (k = 0; k < budget && size > 0; k++) {
        Entry e = pop(heap, &size);
        Piece *pa = &pieces[e.a], *pb = &pieces[e.b];
        if (pa->v[12] < tol && pb->v[12] < tol) {
            memcpy(out, pa->v, sizeof pa->v);
            memcpy(out + 13, pb->v, sizeof pb->v);
            out[26] = e.gap;
            found = 1;
            break;
        }
        if (pa->v[12] >= pb->v[12]) {
            if (pa->half < 0) {
                split(pieces, e.a, n);
                n += 2;
            }
            push(heap, &size, &tick, pieces, pa->half, e.b, sx, sy);
            push(heap, &size, &tick, pieces, pa->half + 1, e.b, sx, sy);
        } else {
            if (pb->half < 0) {
                split(pieces, e.b, n);
                n += 2;
            }
            push(heap, &size, &tick, pieces, e.a, pb->half, sx, sy);
            push(heap, &size, &tick, pieces, e.a, pb->half + 1, sx, sy);
        }
    }
    *npieces = n;
    release(pieces, bytes);
    return found;
}
