/* Exact ReLU, batch-norm and nearest-upsampling kernels for Ops (ops.ml).

   Built with the same flags as conv_stubs.c (-O3 -ffp-contract=off
   -fno-fast-math, no -march), so every result has the bits of plain IEEE
   double arithmetic in source order.  The elementwise loops may vectorize
   across independent elements.  Each batch-norm sum stays one scalar
   chain in (image, plane index) order; four channels' chains run side by
   side, so the chains keep their order but their additions overlap.

   The OCaml side checks every length before each call; the kernels do no
   bounds checks, and they neither allocate nor raise ([@@noalloc]).  One
   call covers one tensor. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <stdint.h>
#include <string.h>

#define FLOATS(v) ((double *) (v))

/* out[i] = x[i] if x[i] > 0, else +0.0 (for -0.0 and NaN too). */
value nas_relu(value x, value out, intnat len)
{
  const double *restrict xp = FLOATS(x);
  double *restrict op = FLOATS(out);
  for (intnat i = 0; i < len; i++) {
    double v = xp[i];
    op[i] = v > 0.0 ? v : 0.0;
  }
  return Val_unit;
}

/* gin[i] = gout[i] if x[i] > 0, else +0.0.  The gradient is loaded
   whatever the sign, so gcc turns the select into a compare and a mask
   instead of a branch that random signs mispredict. */
value nas_relu_backward(value x, value gout, value gin, intnat len)
{
  const double *restrict xp = FLOATS(x);
  const double *restrict gp = FLOATS(gout);
  double *restrict op = FLOATS(gin);
  for (intnat i = 0; i < len; i++) {
    double g = gp[i];
    op[i] = xp[i] > 0.0 ? g : 0.0;
  }
  return Val_unit;
}

/* NaN payloads.  For a commutative product or sum a * b, the OCaml loops
   these kernels replaced left a in the destination register, and SSE2
   then returns a's payload (quieted) when both operands are NaN.  gcc may
   put either operand in the destination, so wherever both can be NaN the
   kernels below pick the payload themselves: [mul_a] and [add_a] are
   a * b and a + b with a's payload.  When a is not NaN, the plain
   operation already has the right bits whatever the operand order. */
static inline double quiet(double a)
{
  uint64_t u;
  memcpy(&u, &a, sizeof u);
  u |= UINT64_C(0x0008000000000000);
  memcpy(&a, &u, sizeof a);
  return a;
}

static inline double mul_a(double a, double b)
{
  return a != a ? quiet(a) : a * b;
}

static inline double add_a(double a, double b)
{
  return a != a ? quiet(a) : a + b;
}

/* One channel's sum: +0.0 plus x, or plus (x - m)^2 when [sq], in
   (image, plane index) order; with [exact], every addition goes through
   [add_a]. */
static double sum1(const double *x, double m, int sq, int exact, intnat n, intnat ch,
                   intnat plane, intnat c)
{
  double s = 0.0;
  for (intnat ni = 0; ni < n; ni++) {
    const double *xc = x + (ni * ch + c) * plane;
    for (intnat i = 0; i < plane; i++) {
      double d = sq ? xc[i] - m : xc[i];
      double t = sq ? d * d : d;
      s = exact ? add_a(s, t) : s + t;
    }
  }
  return s;
}

/* The four per-channel sums of channels c .. c+3 of an [n; ch; plane]
   tensor, each +0.0 plus its terms in (image, plane index) order: the sum
   of x when [mean] is NULL, else the sum of (x - mean[k])^2.  The four
   chains are independent, so their additions overlap.  A sum that ends
   NaN met a NaN term, so it is summed again through [add_a]. */
static void sum4(const double *x, const double *mean, intnat n, intnat ch, intnat plane,
                 intnat c, double *sums)
{
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  for (intnat ni = 0; ni < n; ni++) {
    const double *x0 = x + (ni * ch + c) * plane;
    const double *x1 = x0 + plane, *x2 = x1 + plane, *x3 = x2 + plane;
    if (mean == NULL) {
      for (intnat i = 0; i < plane; i++) {
        s0 = s0 + x0[i];
        s1 = s1 + x1[i];
        s2 = s2 + x2[i];
        s3 = s3 + x3[i];
      }
    } else {
      double m0 = mean[c], m1 = mean[c + 1], m2 = mean[c + 2], m3 = mean[c + 3];
      for (intnat i = 0; i < plane; i++) {
        double d0 = x0[i] - m0, d1 = x1[i] - m1, d2 = x2[i] - m2, d3 = x3[i] - m3;
        s0 = s0 + d0 * d0;
        s1 = s1 + d1 * d1;
        s2 = s2 + d2 * d2;
        s3 = s3 + d3 * d3;
      }
    }
  }
  sums[0] = s0;
  sums[1] = s1;
  sums[2] = s2;
  sums[3] = s3;
  for (int k = 0; k < 4; k++)
    if (sums[k] != sums[k])
      sums[k] = sum1(x, mean ? mean[c + k] : 0.0, mean != NULL, 1, n, ch, plane, c + k);
}

/* Per-channel sums divided by count = n * plane, for every channel; the
   channels after the last block of four are summed one at a time, again
   through [add_a] if the sum ends NaN. */
static void channel_sums(const double *x, const double *mean, intnat n, intnat ch,
                         intnat plane, double *out)
{
  const double count = (double) (n * plane);
  intnat c = 0;
  for (; c + 4 <= ch; c += 4) {
    double s[4];
    sum4(x, mean, n, ch, plane, c, s);
    for (int k = 0; k < 4; k++) out[c + k] = s[k] / count;
  }
  for (; c < ch; c++) {
    double m = mean ? mean[c] : 0.0;
    double s = sum1(x, m, mean != NULL, 0, n, ch, plane, c);
    if (s != s) s = sum1(x, m, mean != NULL, 1, n, ch, plane, c);
    out[c] = s / count;
  }
}

/* Batch statistics of an [n; ch; plane] input: mean[c] is the sum of
   channel c over (image, plane index) divided by the count, var[c] the
   sum of (x - mean[c])^2 in the same order divided by the count. */
value nas_bn_stats(value x, value mean, value var, intnat n, intnat ch, intnat plane)
{
  channel_sums(FLOATS(x), NULL, n, ch, plane, FLOATS(mean));
  channel_sums(FLOATS(x), FLOATS(mean), n, ch, plane, FLOATS(var));
  return Val_unit;
}

/* xhat = (x - mean[c]) * inv_std[c] and out = gamma[c] * xhat + beta[c].
   A channel whose inv_std, gamma or beta is NaN takes the [mul_a] and
   [add_a] loop. */
value nas_bn_normalize(value x, value mean, value inv_std, value gamma, value beta, value xhat,
                       value out, intnat n, intnat ch, intnat plane)
{
  const double *m = FLOATS(mean), *is = FLOATS(inv_std);
  const double *gm = FLOATS(gamma), *bt = FLOATS(beta);
  for (intnat ni = 0; ni < n; ni++)
    for (intnat c = 0; c < ch; c++) {
      intnat base = (ni * ch + c) * plane;
      const double *restrict xp = FLOATS(x) + base;
      double *restrict xh = FLOATS(xhat) + base;
      double *restrict op = FLOATS(out) + base;
      double mc = m[c], isc = is[c], g = gm[c], b = bt[c];
      if (isc != isc || g != g || b != b)
        for (intnat i = 0; i < plane; i++) {
          double v = mul_a(xp[i] - mc, isc);
          xh[i] = v;
          op[i] = add_a(mul_a(g, v), b);
        }
      else
        for (intnat i = 0; i < plane; i++) {
          double v = (xp[i] - mc) * isc;
          xh[i] = v;
          op[i] = g * v + b;
        }
    }
  return Val_unit;
}

/* sum_g and sum_gx of channel c, in (image, plane index) order; with
   [exact], every operation goes through [add_a] and [mul_a]. */
static void grad_sums1(const double *gout, const double *xhat, intnat n, intnat ch,
                       intnat plane, intnat c, int exact, double *sum_g, double *sum_gx)
{
  double g = 0.0, h = 0.0;
  for (intnat ni = 0; ni < n; ni++) {
    const double *q = gout + (ni * ch + c) * plane, *x = xhat + (ni * ch + c) * plane;
    for (intnat i = 0; i < plane; i++) {
      double a = q[i];
      g = exact ? add_a(g, a) : g + a;
      h = exact ? add_a(h, mul_a(a, x[i])) : h + a * x[i];
    }
  }
  *sum_g = g;
  *sum_gx = h;
}

/* sum_g and sum_gx of channels c .. c+3, each in (image, plane index)
   order, as four pairs of side-by-side chains; a channel whose sums end
   NaN is summed again exactly. */
static void grad_sums4(const double *gout, const double *xhat, intnat n, intnat ch,
                       intnat plane, intnat c, double *sum_g, double *sum_gx)
{
  double g0 = 0.0, g1 = 0.0, g2 = 0.0, g3 = 0.0;
  double h0 = 0.0, h1 = 0.0, h2 = 0.0, h3 = 0.0;
  for (intnat ni = 0; ni < n; ni++) {
    intnat base = (ni * ch + c) * plane;
    const double *q0 = gout + base, *q1 = q0 + plane, *q2 = q1 + plane, *q3 = q2 + plane;
    const double *x0 = xhat + base, *x1 = x0 + plane, *x2 = x1 + plane, *x3 = x2 + plane;
    for (intnat i = 0; i < plane; i++) {
      double a0 = q0[i], a1 = q1[i], a2 = q2[i], a3 = q3[i];
      g0 = g0 + a0;
      h0 = h0 + a0 * x0[i];
      g1 = g1 + a1;
      h1 = h1 + a1 * x1[i];
      g2 = g2 + a2;
      h2 = h2 + a2 * x2[i];
      g3 = g3 + a3;
      h3 = h3 + a3 * x3[i];
    }
  }
  sum_g[0] = g0;
  sum_g[1] = g1;
  sum_g[2] = g2;
  sum_g[3] = g3;
  sum_gx[0] = h0;
  sum_gx[1] = h1;
  sum_gx[2] = h2;
  sum_gx[3] = h3;
  for (int k = 0; k < 4; k++)
    if (sum_g[k] != sum_g[k] || sum_gx[k] != sum_gx[k])
      grad_sums1(gout, xhat, n, ch, plane, c + k, 1, sum_g + k, sum_gx + k);
}

/* Batch-norm backward.  Per channel c: ggamma[c] = sum_gx, the sum of
   gout * xhat, and gbeta[c] = sum_g, the sum of gout, both in (image,
   plane index) order; then with coeff = gamma[c] * inv_std[c] / count,
   gin = coeff * ((count * gout - sum_g) - xhat * sum_gx).  A channel
   whose coeff or sum_gx is NaN takes the [mul_a] loop. */
value nas_bn_backward(value gout, value xhat, value gamma, value inv_std, value gin,
                      value ggamma, value gbeta, intnat n, intnat ch, intnat plane)
{
  const double *gp = FLOATS(gout), *xp = FLOATS(xhat);
  const double *gm = FLOATS(gamma), *is = FLOATS(inv_std);
  double *sg = FLOATS(gbeta), *sgx = FLOATS(ggamma);
  const double count = (double) (n * plane);
  intnat c = 0;
  for (; c + 4 <= ch; c += 4) grad_sums4(gp, xp, n, ch, plane, c, sg + c, sgx + c);
  for (; c < ch; c++) {
    grad_sums1(gp, xp, n, ch, plane, c, 0, sg + c, sgx + c);
    if (sg[c] != sg[c] || sgx[c] != sgx[c]) grad_sums1(gp, xp, n, ch, plane, c, 1, sg + c, sgx + c);
  }
  for (intnat ni = 0; ni < n; ni++)
    for (c = 0; c < ch; c++) {
      intnat base = (ni * ch + c) * plane;
      const double *restrict q = gp + base;
      const double *restrict x = xp + base;
      double *restrict op = FLOATS(gin) + base;
      double coeff = mul_a(gm[c], is[c]) / count, s = sg[c], sx = sgx[c];
      if (coeff != coeff || sx != sx)
        for (intnat i = 0; i < plane; i++)
          op[i] = mul_a(coeff, (count * q[i] - s) - mul_a(x[i], sx));
      else
        for (intnat i = 0; i < plane; i++) op[i] = coeff * ((count * q[i] - s) - x[i] * sx);
    }
  return Val_unit;
}

/* Nearest upsampling by [f] of [planes] planes of h x w: each output row
   repeats every input cell [f] times and is then copied to the f - 1 rows
   below it.  Copies keep every bit, NaN payloads included.  Inlined with
   a constant [f] for the common factor 2. */
static inline __attribute__((always_inline)) void upsample(const double *restrict in,
                                                           double *restrict out, intnat rows,
                                                           intnat w, intnat f)
{
  const intnat wf = w * f;
  for (intnat r = 0; r < rows; r++, in += w) {
    double *row = out + r * f * wf;
    for (intnat j = 0; j < w; j++)
      for (intnat k = 0; k < f; k++) row[j * f + k] = in[j];
    for (intnat k = 1; k < f; k++) memcpy(row + k * wf, row, (size_t) wf * sizeof(double));
  }
}

value nas_upsample(value in, value out, intnat planes, intnat h, intnat w, intnat f)
{
  if (f == 2) upsample(FLOATS(in), FLOATS(out), planes * h, w, 2);
  else upsample(FLOATS(in), FLOATS(out), planes * h, w, f);
  return Val_unit;
}

/* The gradient of one input cell: +0.0 plus its f x f output gradients
   [g] (row pitch [wf]) in (dh, dw) order, through [add_a] when [exact]. */
static inline __attribute__((always_inline)) double cell_sum(const double *g, intnat wf,
                                                             intnat f, int exact)
{
  double s = 0.0;
  for (intnat dh = 0; dh < f; dh++)
    for (intnat dw = 0; dw < f; dw++) s = exact ? add_a(s, g[dh * wf + dw]) : s + g[dh * wf + dw];
  return s;
}

/* Upsampling backward: gin[r][j] is the [cell_sum] of output rows r * f
   onwards, columns j * f onwards.  A sum that ends NaN met a NaN term and
   is summed again through [add_a]. */
static inline __attribute__((always_inline)) void upsample_backward(const double *restrict gout,
                                                                    double *restrict gin,
                                                                    intnat rows, intnat w,
                                                                    intnat f)
{
  const intnat wf = w * f;
  for (intnat r = 0; r < rows; r++, gin += w) {
    const double *g = gout + r * f * wf;
    for (intnat j = 0; j < w; j++) gin[j] = cell_sum(g + j * f, wf, f, 0);
    for (intnat j = 0; j < w; j++)
      if (gin[j] != gin[j]) gin[j] = cell_sum(g + j * f, wf, f, 1);
  }
}

value nas_upsample_backward(value gout, value gin, intnat planes, intnat h, intnat w, intnat f)
{
  if (f == 2) upsample_backward(FLOATS(gout), FLOATS(gin), planes * h, w, 2);
  else upsample_backward(FLOATS(gout), FLOATS(gin), planes * h, w, f);
  return Val_unit;
}

/* Bytecode entry points: the same kernels with every int tagged, and the
   arguments in [argv] beyond five. */

value nas_relu_byte(value x, value out, value len)
{
  return nas_relu(x, out, Long_val(len));
}

value nas_relu_backward_byte(value x, value gout, value gin, value len)
{
  return nas_relu_backward(x, gout, gin, Long_val(len));
}

#define I(k) Long_val(argv[k])

value nas_bn_stats_byte(value *argv, int argn)
{
  (void) argn;
  return nas_bn_stats(argv[0], argv[1], argv[2], I(3), I(4), I(5));
}

value nas_bn_normalize_byte(value *argv, int argn)
{
  (void) argn;
  return nas_bn_normalize(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6], I(7),
                          I(8), I(9));
}

value nas_bn_backward_byte(value *argv, int argn)
{
  (void) argn;
  return nas_bn_backward(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6], I(7),
                         I(8), I(9));
}

value nas_upsample_byte(value *argv, int argn)
{
  (void) argn;
  return nas_upsample(argv[0], argv[1], I(2), I(3), I(4), I(5));
}

value nas_upsample_backward_byte(value *argv, int argn)
{
  (void) argn;
  return nas_upsample_backward(argv[0], argv[1], I(2), I(3), I(4), I(5));
}
