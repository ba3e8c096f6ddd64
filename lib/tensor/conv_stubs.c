/* Exact convolution kernels for Ops (ops.ml): the im2col forward pass
   and the phased gather of the input gradient (each packs its operands
   and runs the one ordered dot product, [dot_rows]), the depthwise
   stencils over zero-framed planes, the direct forward and backward
   loops, and the finiteness scan that picks between them.

   Each kernel adds the same IEEE double terms in the same order as the
   ordered-accumulation contract in ops.mli: every sum is its own scalar
   chain, and the compiler may vectorize only across independent sums.
   The dune flags make that hold: -ffp-contract=off forbids fusing a
   multiply and an add into one FMA (one rounding instead of two), and
   -fno-fast-math keeps additions unreassociated.  No -march flag is
   given, so the code is the same on every x86-64 host.

   The OCaml side checks, before every call, that each index a kernel
   touches lies inside its array; the kernels do no bounds checks.  They
   neither allocate nor raise ([@@noalloc]), and one call covers at most
   one (image, group), or one image for a depthwise stencil, so another
   domain waiting for a stop-the-world collection never waits for a whole
   layer. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <stdint.h>
#include <string.h>

#define FLOATS(v) ((double *) (v))

/* Whether no element of the float array [a] is an infinity or a NaN, that
   is, no exponent field is all ones.  Adding 2^52 to the masked exponent
   sets bit 63 exactly when the field is all ones, so the scan is 64-bit
   ands, adds and ors, which vectorize on baseline x86-64. */
value nas_all_finite(value a)
{
  const double *p = FLOATS(a);
  const intnat len = Wosize_val(a) / Double_wosize;
  uint64_t acc = 0;
  for (intnat i = 0; i < len; i++) {
    uint64_t u;
    memcpy(&u, p + i, sizeof u);
    acc |= (u & UINT64_C(0x7ff0000000000000)) + UINT64_C(0x0010000000000000);
  }
  return Val_bool(acc >> 63 == 0);
}

/* The output indices o in [0, out) whose tap o * stride + off lies in
   [0, extent) run from tap_first to tap_last (empty when first > last). */
static inline intnat tap_first(intnat off, intnat stride)
{
  return off >= 0 ? 0 : (stride - 1 - off) / stride;
}

static inline intnat tap_last(intnat off, intnat stride, intnat extent, intnat out)
{
  intnat room = extent - 1 - off;
  if (room < 0) return -1;
  return room / stride < out - 1 ? room / stride : out - 1;
}

/* out[out_off + r * out_stride + q], for r < rows and q < cols, is +0.0
   plus b[q * len + j] * a[a_off + r * len + j] for j ascending.  The sums
   stay in registers, in blocks of four rows by two columns: each load of
   b serves four rows, each load of a two columns. */
static void dot_rows(const double *a, const double *b, intnat len, intnat rows, intnat cols,
                     double *out, intnat out_stride)
{
  intnat r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double *a0 = a + r * len, *a1 = a0 + len, *a2 = a1 + len, *a3 = a2 + len;
    double *o0 = out + r * out_stride;
    intnat q = 0;
    for (; q + 2 <= cols; q += 2) {
      const double *bq = b + q * len, *bq1 = bq + len;
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      double t0 = 0.0, t1 = 0.0, t2 = 0.0, t3 = 0.0;
      for (intnat j = 0; j < len; j++) {
        double x = bq[j], y = bq1[j];
        double w0 = a0[j];
        s0 = s0 + x * w0;
        t0 = t0 + y * w0;
        double w1 = a1[j];
        s1 = s1 + x * w1;
        t1 = t1 + y * w1;
        double w2 = a2[j];
        s2 = s2 + x * w2;
        t2 = t2 + y * w2;
        double w3 = a3[j];
        s3 = s3 + x * w3;
        t3 = t3 + y * w3;
      }
      double *o = o0 + q;
      o[0] = s0;
      o[1] = t0;
      o[out_stride] = s1;
      o[out_stride + 1] = t1;
      o[2 * out_stride] = s2;
      o[2 * out_stride + 1] = t2;
      o[3 * out_stride] = s3;
      o[3 * out_stride + 1] = t3;
    }
    if (q < cols) {
      const double *bq = b + q * len;
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (intnat j = 0; j < len; j++) {
        double x = bq[j];
        s0 = s0 + x * a0[j];
        s1 = s1 + x * a1[j];
        s2 = s2 + x * a2[j];
        s3 = s3 + x * a3[j];
      }
      double *o = o0 + q;
      o[0] = s0;
      o[out_stride] = s1;
      o[2 * out_stride] = s2;
      o[3 * out_stride] = s3;
    }
  }
  for (; r < rows; r++) {
    const double *a0 = a + r * len;
    double *o0 = out + r * out_stride;
    for (intnat q = 0; q < cols; q++) {
      const double *bq = b + q * len;
      double s = 0.0;
      for (intnat j = 0; j < len; j++) s = s + bq[j] * a0[j];
      o0[q] = s;
    }
  }
}

/* The geometry of one (image, group): [cig] input channels of [h] x [w]
   planes, [cog] output channels of [ho] x [wo] planes, [kh] x [kw] taps. */
struct geom {
  intnat cig, cog, h, w, kh, kw, ho, wo, stride, pad, dilation;
};

/* Direct forward loop: scatters each nonzero weight over the output plane,
   with the padding bounds of every tap hoisted out of the inner loops.
   [in], [wt] and [out] point at the (image, group)'s first input channel,
   weight and output channel. */
static void conv_direct(const double *in, const double *wt, double *out, const struct geom *g)
{
  const intnat taps = g->kh * g->kw;
  for (intnat co = 0; co < g->cog; co++) {
    double *oco = out + co * g->ho * g->wo;
    for (intnat ci = 0; ci < g->cig; ci++) {
      const double *ici = in + ci * g->h * g->w;
      const double *wci = wt + (co * g->cig + ci) * taps;
      for (intnat khi = 0; khi < g->kh; khi++) {
        intnat hoff = khi * g->dilation - g->pad;
        intnat h_lo = tap_first(hoff, g->stride);
        intnat h_hi = tap_last(hoff, g->stride, g->h, g->ho);
        for (intnat kwi = 0; kwi < g->kw; kwi++) {
          double wv = wci[khi * g->kw + kwi];
          intnat woff = kwi * g->dilation - g->pad;
          intnat w_lo = tap_first(woff, g->stride);
          intnat count = tap_last(woff, g->stride, g->w, g->wo) - w_lo + 1;
          if (wv != 0.0 && count > 0) {
            for (intnat hoi = h_lo; hoi <= h_hi; hoi++) {
              const double *ip =
                ici + ((hoi * g->stride + hoff) * g->w + woff + w_lo * g->stride);
              double *op = oco + hoi * g->wo + w_lo;
              for (intnat t = 0; t < count; t++) op[t] = op[t] + ip[t * g->stride] * wv;
            }
          }
        }
      }
    }
  }
}

/* Direct backward loop: scatters [gout * w] over the input gradient for
   every tap, zero weights included.  With a non-NULL [gwt] it also sums
   each tap's weight gradient over the valid output positions in the same
   pass ([in] is then the forward input). */
static void conv_backward_direct(const double *in, const double *gout, const double *wt,
                                 double *gin, double *gwt, const struct geom *g)
{
  const intnat taps = g->kh * g->kw;
  for (intnat co = 0; co < g->cog; co++) {
    const double *gco = gout + co * g->ho * g->wo;
    for (intnat ci = 0; ci < g->cig; ci++) {
      const intnat ibase = ci * g->h * g->w;
      const intnat wbase = (co * g->cig + ci) * taps;
      for (intnat khi = 0; khi < g->kh; khi++) {
        intnat hoff = khi * g->dilation - g->pad;
        intnat h_lo = tap_first(hoff, g->stride);
        intnat h_hi = tap_last(hoff, g->stride, g->h, g->ho);
        for (intnat kwi = 0; kwi < g->kw; kwi++) {
          intnat widx = wbase + khi * g->kw + kwi;
          double wv = wt[widx];
          intnat woff = kwi * g->dilation - g->pad;
          intnat w_lo = tap_first(woff, g->stride);
          intnat count = tap_last(woff, g->stride, g->w, g->wo) - w_lo + 1;
          if (gwt != NULL) {
            double wacc = 0.0;
            for (intnat hoi = h_lo; hoi <= h_hi; hoi++) {
              intnat ii = ibase + (hoi * g->stride + hoff) * g->w + woff + w_lo * g->stride;
              const double *gp = gco + hoi * g->wo + w_lo;
              for (intnat t = 0; t < count; t++) {
                double gov = gp[t];
                wacc = wacc + gov * in[ii];
                gin[ii] = gin[ii] + gov * wv;
                ii += g->stride;
              }
            }
            gwt[widx] = gwt[widx] + wacc;
          } else if (count > 0) {
            for (intnat hoi = h_lo; hoi <= h_hi; hoi++) {
              double *ip =
                gin + (ibase + (hoi * g->stride + hoff) * g->w + woff + w_lo * g->stride);
              const double *gp = gco + hoi * g->wo + w_lo;
              for (intnat t = 0; t < count; t++) ip[t * g->stride] = ip[t * g->stride] + gp[t] * wv;
            }
          }
        }
      }
    }
  }
}

/* im2col forward for one (image, group): col[q * kk + k], with kk the
   cig * kh * kw taps, is the input tap k = (ci, kh, kw) of output
   position q, or 0.0 for a padded tap; then out[co * ho * wo + q] is one ordered dot
   product of weight row co with col row q.  Outputs whose window lies
   inside the input copy their taps through the offsets [off] without a
   bounds check; only border outputs check. */
static void conv_im2col(const double *in, const double *wt, double *col, double *out,
                        const struct geom *g)
{
  const intnat hw = g->h * g->w, taps = g->kh * g->kw, kk = g->cig * taps;
  intnat off[taps];
  for (intnat t = 0; t < taps; t++)
    off[t] = (t / g->kw) * g->dilation * g->w + (t % g->kw) * g->dilation;
  const intnat h_lo = tap_first(-g->pad, g->stride);
  const intnat h_hi = tap_last((g->kh - 1) * g->dilation - g->pad, g->stride, g->h, g->ho);
  const intnat w_lo = tap_first(-g->pad, g->stride);
  const intnat w_hi = tap_last((g->kw - 1) * g->dilation - g->pad, g->stride, g->w, g->wo);
  double *c = col;
  for (intnat hoi = 0; hoi < g->ho; hoi++) {
    const intnat h0 = hoi * g->stride - g->pad;
    const int h_in = hoi >= h_lo && hoi <= h_hi;
    for (intnat woi = 0; woi < g->wo; woi++) {
      const intnat w0 = woi * g->stride - g->pad;
      if (h_in && woi >= w_lo && woi <= w_hi) {
        const double *p = in + h0 * g->w + w0;
        for (intnat ci = 0; ci < g->cig; ci++, p += hw)
          for (intnat t = 0; t < taps; t++) *c++ = p[off[t]];
      } else {
        for (intnat ci = 0; ci < g->cig; ci++)
          for (intnat khi = 0; khi < g->kh; khi++) {
            const intnat hi = h0 + khi * g->dilation;
            if (hi < 0 || hi >= g->h) {
              for (intnat kwi = 0; kwi < g->kw; kwi++) *c++ = 0.0;
              continue;
            }
            const double *row = in + ci * hw + hi * g->w;
            for (intnat kwi = 0; kwi < g->kw; kwi++) {
              const intnat wi = w0 + kwi * g->dilation;
              *c++ = wi >= 0 && wi < g->w ? row[wi] : 0.0;
            }
          }
      }
    }
  }
  dot_rows(wt, col, kk, g->cog, g->ho * g->wo, out, g->ho * g->wo);
}

/* Phases of the input gradient along one axis of [extent] inputs.  Phase
   [ph] holds the inputs i with (i + pad) mod stride = ph: i = first + m *
   stride for m < count.  It meets the taps t with t * dilation = ph (mod
   stride), and only those: input i reads output (i + pad - t * dilation)
   / stride = m + base, with base = (first + pad - t * dilation) / stride.
   [phase_taps] stores those taps in ascending order in [tap] and returns
   how many there are. */
static intnat phase_taps(intnat ph, intnat k, intnat stride, intnat dilation, intnat *tap)
{
  intnat n = 0;
  for (intnat t = 0; t < k; t++)
    if (t * dilation % stride == ph) tap[n++] = t;
  return n;
}

static intnat phase_first(intnat ph, intnat stride, intnat pad)
{
  return ((ph - pad) % stride + stride) % stride;
}

static intnat phase_count(intnat first, intnat stride, intnat extent)
{
  return first < extent ? (extent - 1 - first) / stride + 1 : 0;
}

/* The weights of one group, packed for the phased gather: phase (ph, pw)
   in row-major order, and within it, for each input channel ci, the taps
   (co, kh, kw) that phase meets in ascending order.  Each tap lands in
   exactly one phase, so the packing has as many floats as the weights. */
static void gather_weights(const double *wt, double *wtp, const struct geom *g)
{
  intnat th[g->kh], tw[g->kw];
  for (intnat ph = 0; ph < g->stride; ph++) {
    const intnat nth = phase_taps(ph, g->kh, g->stride, g->dilation, th);
    for (intnat pw = 0; pw < g->stride; pw++) {
      const intnat ntw = phase_taps(pw, g->kw, g->stride, g->dilation, tw);
      for (intnat ci = 0; ci < g->cig; ci++)
        for (intnat co = 0; co < g->cog; co++) {
          const double *w = wt + (co * g->cig + ci) * g->kh * g->kw;
          for (intnat a = 0; a < nth; a++)
            for (intnat b = 0; b < ntw; b++) *wtp++ = w[th[a] * g->kw + tw[b]];
        }
    }
  }
}

/* Gathered input gradient for one (image, group), phase by phase.  For
   the inputs of phase (ph, pw), gcol[p * jj + j] is the output gradient
   that reaches input position p through tap j = (co, kh, kw) of the
   phase (0.0 where the output lies outside the plane), and each input
   gradient is one ordered dot product of its row of the packed weights
   [wtp] with gcol row p.  At stride 1 the one phase is the whole plane
   and the products land in [gin] directly; otherwise they land in [tmp]
   and are scattered to the phase's inputs.  A phase that meets no tap
   writes +0.0.  Inputs all of whose taps land inside the output copy
   them through the offsets [off]; only border inputs check bounds. */
static void conv_gather(const double *gout, const double *wtp, double *gcol, double *tmp,
                        double *gin, const struct geom *g)
{
  const intnat s = g->stride, hw = g->h * g->w, howo = g->ho * g->wo;
  intnat th[g->kh], tw[g->kw], bh[g->kh], bw[g->kw], off[g->kh * g->kw];
  for (intnat ph = 0; ph < s; ph++) {
    const intnat nth = phase_taps(ph, g->kh, s, g->dilation, th);
    const intnat h0 = phase_first(ph, s, g->pad), nh = phase_count(h0, s, g->h);
    for (intnat a = 0; a < nth; a++) bh[a] = (h0 + g->pad - th[a] * g->dilation) / s;
    for (intnat pw = 0; pw < s; pw++) {
      const intnat ntw = phase_taps(pw, g->kw, s, g->dilation, tw);
      const intnat w0 = phase_first(pw, s, g->pad), nw = phase_count(w0, s, g->w);
      const intnat taps = nth * ntw, jj = g->cog * taps, npos = nh * nw;
      const double *w = wtp;
      wtp += g->cig * jj;
      if (npos == 0) continue;
      if (taps == 0) {
        for (intnat ci = 0; ci < g->cig; ci++)
          for (intnat m = 0; m < nh; m++) {
            double *row = gin + ci * hw + (h0 + m * s) * g->w + w0;
            for (intnat q = 0; q < nw; q++) row[q * s] = 0.0;
          }
        continue;
      }
      for (intnat b = 0; b < ntw; b++) bw[b] = (w0 + g->pad - tw[b] * g->dilation) / s;
      for (intnat a = 0; a < nth; a++)
        for (intnat b = 0; b < ntw; b++) off[a * ntw + b] = bh[a] * g->wo + bw[b];
      /* The bases fall as the tap rises, so the interior runs from the
         first input whose last tap is inside to the last whose first is. */
      const intnat mh_lo = -bh[nth - 1], mh_hi = g->ho - 1 - bh[0];
      const intnat mw_lo = -bw[ntw - 1], mw_hi = g->wo - 1 - bw[0];
      double *c = gcol;
      for (intnat m = 0; m < nh; m++) {
        const int h_in = m >= mh_lo && m <= mh_hi;
        for (intnat q = 0; q < nw; q++) {
          if (h_in && q >= mw_lo && q <= mw_hi) {
            intnat i = m * g->wo + q;
            for (intnat co = 0; co < g->cog; co++, i += howo)
              for (intnat t = 0; t < taps; t++) *c++ = gout[i + off[t]];
          } else {
            for (intnat co = 0; co < g->cog; co++)
              for (intnat a = 0; a < nth; a++) {
                const intnat hoi = m + bh[a];
                if (hoi < 0 || hoi >= g->ho) {
                  for (intnat b = 0; b < ntw; b++) *c++ = 0.0;
                  continue;
                }
                const double *row = gout + co * howo + hoi * g->wo;
                for (intnat b = 0; b < ntw; b++) {
                  const intnat woi = q + bw[b];
                  *c++ = woi >= 0 && woi < g->wo ? row[woi] : 0.0;
                }
              }
          }
        }
      }
      if (s == 1) {
        dot_rows(w, gcol, jj, g->cig, npos, gin, hw);
      } else {
        dot_rows(w, gcol, jj, g->cig, npos, tmp, npos);
        for (intnat ci = 0; ci < g->cig; ci++)
          for (intnat m = 0; m < nh; m++) {
            double *row = gin + ci * hw + (h0 + m * s) * g->w + w0;
            const double *src = tmp + ci * npos + m * nw;
            for (intnat q = 0; q < nw; q++) row[q * s] = src[q];
          }
      }
    }
  }
}

/* Depthwise kernels (one input channel per group).  Both read a copy of
   a plane framed by zeros without a bounds check, so every sum is +0.0
   plus all its taps (a padded one adds an exact zero), and they
   vectorize across the sums of a row, which are independent. */

/* out[r * ostride + q * ocstep], for r < rows and q < cols, is +0.0 (or,
   with [add], its own value) plus p[r * rstep + q * cstep + off[t]] *
   wv[t] for t ascending.  Inlined with a constant number of taps, each
   sum stays in a register while the loop over q vectorizes. */
static inline __attribute__((always_inline)) void stencil_n(
  const double *restrict p, intnat rstep, intnat cstep, const intnat *off, const double *wv,
  intnat taps, double *restrict out, intnat ostride, intnat ocstep, intnat rows, intnat cols,
  int add)
{
  for (intnat r = 0; r < rows; r++, p += rstep, out += ostride)
    for (intnat q = 0; q < cols; q++) {
      const double *x = p + q * cstep;
      double s = add ? out[q * ocstep] : 0.0;
      for (intnat t = 0; t < taps; t++) s = s + x[off[t]] * wv[t];
      out[q * ocstep] = s;
    }
}

/* The same for any number of taps: a count the kernels meet often is
   inlined as a constant; any other keeps its sums in [out] and adds the
   taps one at a time. */
static void stencil(const double *restrict p, intnat rstep, intnat cstep, const intnat *off,
                    const double *wv, intnat taps, double *restrict out, intnat ostride,
                    intnat ocstep, intnat rows, intnat cols, int add)
{
#define STENCIL(n)                                                                       \
  case n:                                                                                \
    if (cstep == 1 && ocstep == 1 && !add)                                               \
      stencil_n(p, rstep, 1, off, wv, n, out, ostride, 1, rows, cols, 0);                \
    else stencil_n(p, rstep, cstep, off, wv, n, out, ostride, ocstep, rows, cols, add);  \
    return;
  switch (taps) {
    STENCIL(1)
    STENCIL(2)
    STENCIL(4)
    STENCIL(9)
  default:
    for (intnat r = 0; r < rows; r++, p += rstep, out += ostride) {
      if (!add)
        for (intnat q = 0; q < cols; q++) out[q * ocstep] = 0.0;
      for (intnat t = 0; t < taps; t++) {
        const double *pt = p + off[t];
        const double wt = wv[t];
        for (intnat q = 0; q < cols; q++) out[q * ocstep] = out[q * ocstep] + pt[q * cstep] * wt;
      }
    }
  }
#undef STENCIL
}

/* dst, a (top + h + bottom) x (left + w + right) plane, is the h x w
   plane [src] framed by zeros. */
static void pad_plane(const double *src, double *dst, intnat h, intnat w, intnat top,
                      intnat bottom, intnat left, intnat right)
{
  const intnat pitch = left + w + right;
  memset(dst, 0, (size_t) (top * pitch) * sizeof(double));
  dst += top * pitch;
  for (intnat r = 0; r < h; r++, dst += pitch, src += w) {
    for (intnat q = 0; q < left; q++) dst[q] = 0.0;
    memcpy(dst + left, src, (size_t) w * sizeof(double));
    for (intnat q = left + w; q < pitch; q++) dst[q] = 0.0;
  }
  memset(dst, 0, (size_t) (bottom * pitch) * sizeof(double));
}

/* The zero margin after the [extent] inputs of an axis in the depthwise
   forward: [pad], or more where the last output's taps reach further (a
   kernel wider than the padded input still has one output).  ops.ml
   sizes the scratch with the same formula. */
static intnat frame_after(intnat extent, intnat out, intnat k, intnat stride, intnat pad,
                          intnat dilation)
{
  const intnat r = (out - 1) * stride + (k - 1) * dilation + 1 - pad - extent;
  return r > pad ? r : pad;
}

/* Depthwise forward for one image: for each of [groups] input planes,
   [plane] is the plane framed by zeros ([pad] before, [frame_after]
   after), and each of the [cog] output channels reading it is, per
   output, +0.0 plus its taps in (kh, kw) order. */
static void conv_depthwise(const double *in, const double *wt, double *plane, double *out,
                           intnat groups, const struct geom *g)
{
  const intnat bottom = frame_after(g->h, g->ho, g->kh, g->stride, g->pad, g->dilation);
  const intnat right = frame_after(g->w, g->wo, g->kw, g->stride, g->pad, g->dilation);
  const intnat pitch = g->pad + g->w + right, taps = g->kh * g->kw;
  intnat off[taps];
  for (intnat t = 0; t < taps; t++)
    off[t] = (t / g->kw) * g->dilation * pitch + (t % g->kw) * g->dilation;
  for (intnat c = 0; c < groups; c++) {
    pad_plane(in + c * g->h * g->w, plane, g->h, g->w, g->pad, bottom, g->pad, right);
    for (intnat co = c * g->cog; co < (c + 1) * g->cog; co++) {
      double *o = out + co * g->ho * g->wo;
      stencil(plane, g->stride * pitch, g->stride, off, wt + co * taps, taps, o, g->wo, 1, g->ho,
              g->wo, 0);
    }
  }
}

/* The zero margins of the output-gradient planes the depthwise input
   gradient reads, before and after [out] outputs along an axis of
   [extent] inputs: an input of any phase reads outputs from -before to
   out - 1 + after.  ops.ml sizes the scratch with the same formula. */
static intnat margin_before(intnat k, intnat stride, intnat pad, intnat dilation)
{
  const intnat r = (k - 1) * dilation - pad;
  return r > 0 ? r / stride : 0;
}

static intnat margin_after(intnat extent, intnat out, intnat stride, intnat pad)
{
  const intnat r = (extent - 1 + pad) / stride - (out - 1);
  return r > 0 ? r : 0;
}

/* Depthwise input gradient for one image, input-stationary over padded
   output-gradient planes, phase by phase as in [conv_gather].  The phases
   are laid out once: phase f covers the nh[f] x nw[f] inputs from (h0[f],
   w0[f]) and meets the taps j in [first[f], first[f + 1]), each reading
   the framed plane at offset off[j] through weight tap wtap[j], in (kh,
   kw) order.  Then, per group, [buf] holds the group's [cog]
   output-gradient planes framed by zeros, and each input is +0.0 plus
   its phase's taps in (co, kh, kw) order, written in place (every
   stride-th cell of every stride-th row): each output channel's taps are
   added to the sums the channels before it left.  A phase that meets no
   tap writes +0.0. */
static void conv_depthwise_input(const double *gout, const double *wt, double *buf, double *gin,
                                 intnat groups, const struct geom *g)
{
  const intnat s = g->stride, hw = g->h * g->w, howo = g->ho * g->wo, taps_all = g->kh * g->kw;
  const intnat top = margin_before(g->kh, s, g->pad, g->dilation);
  const intnat left = margin_before(g->kw, s, g->pad, g->dilation);
  const intnat bottom = margin_after(g->h, g->ho, s, g->pad);
  const intnat right = margin_after(g->w, g->wo, s, g->pad);
  const intnat pitch = left + g->wo + right, plane = (top + g->ho + bottom) * pitch;
  const intnat phases = s * s;
  intnat h0[phases], w0[phases], nh[phases], nw[phases], first[phases + 1];
  intnat off[taps_all], wtap[taps_all], th[g->kh], tw[g->kw];
  double wv[taps_all];
  first[0] = 0;
  for (intnat f = 0; f < phases; f++) {
    const intnat ph = f / s, pw = f % s;
    const intnat nth = phase_taps(ph, g->kh, s, g->dilation, th);
    const intnat ntw = phase_taps(pw, g->kw, s, g->dilation, tw);
    h0[f] = phase_first(ph, s, g->pad);
    w0[f] = phase_first(pw, s, g->pad);
    nh[f] = phase_count(h0[f], s, g->h);
    nw[f] = phase_count(w0[f], s, g->w);
    intnat j = first[f];
    for (intnat a = 0; a < nth; a++)
      for (intnat b = 0; b < ntw; b++, j++) {
        const intnat bh = (h0[f] + g->pad - th[a] * g->dilation) / s;
        const intnat bw = (w0[f] + g->pad - tw[b] * g->dilation) / s;
        off[j] = (bh + top) * pitch + bw + left;
        wtap[j] = th[a] * g->kw + tw[b];
      }
    first[f + 1] = j;
  }
  for (intnat c = 0; c < groups; c++) {
    double *gc = gin + c * hw;
    for (intnat k = 0; k < g->cog; k++)
      pad_plane(gout + (c * g->cog + k) * howo, buf + k * plane, g->ho, g->wo, top, bottom, left,
                right);
    for (intnat f = 0; f < phases; f++) {
      const intnat taps = first[f + 1] - first[f];
      double *dst = gc + h0[f] * g->w + w0[f];
      if (taps == 0)
        for (intnat m = 0; m < nh[f]; m++)
          for (intnat q = 0; q < nw[f]; q++) dst[m * s * g->w + q * s] = 0.0;
      for (intnat k = 0; k < g->cog && taps > 0; k++) {
        const double *w = wt + (c * g->cog + k) * taps_all;
        for (intnat j = 0; j < taps; j++) wv[j] = w[wtap[first[f] + j]];
        stencil(buf + k * plane, pitch, 1, off + first[f], wv, taps, dst, s * g->w, s, nh[f],
                nw[f], k > 0);
      }
    }
  }
}

value nas_conv_im2col(value in, intnat in_off, value wt, intnat wt_off, value col, value out,
                      intnat out_off, intnat cig, intnat cog, intnat h, intnat w, intnat kh,
                      intnat kw, intnat ho, intnat wo, intnat stride, intnat pad,
                      intnat dilation)
{
  struct geom g = { cig, cog, h, w, kh, kw, ho, wo, stride, pad, dilation };
  conv_im2col(FLOATS(in) + in_off, FLOATS(wt) + wt_off, FLOATS(col), FLOATS(out) + out_off, &g);
  return Val_unit;
}

value nas_gather_weights(value wt, value wtp, intnat off, intnat cig, intnat cog, intnat kh,
                         intnat kw, intnat stride, intnat dilation)
{
  struct geom g = { cig, cog, 0, 0, kh, kw, 0, 0, stride, 0, dilation };
  gather_weights(FLOATS(wt) + off, FLOATS(wtp) + off, &g);
  return Val_unit;
}

value nas_conv_gather(value gout, intnat gout_off, value wtp, intnat wtp_off, value gcol,
                      value tmp, value gin, intnat gin_off, intnat cig, intnat cog, intnat h,
                      intnat w, intnat kh, intnat kw, intnat ho, intnat wo, intnat stride,
                      intnat pad, intnat dilation)
{
  struct geom g = { cig, cog, h, w, kh, kw, ho, wo, stride, pad, dilation };
  conv_gather(FLOATS(gout) + gout_off, FLOATS(wtp) + wtp_off, FLOATS(gcol), FLOATS(tmp),
              FLOATS(gin) + gin_off, &g);
  return Val_unit;
}

value nas_conv_depthwise(value in, intnat in_off, value wt, value plane, value out,
                         intnat out_off, intnat groups, intnat cog, intnat h, intnat w,
                         intnat kh, intnat kw, intnat ho, intnat wo, intnat stride, intnat pad,
                         intnat dilation)
{
  struct geom g = { 1, cog, h, w, kh, kw, ho, wo, stride, pad, dilation };
  conv_depthwise(FLOATS(in) + in_off, FLOATS(wt), FLOATS(plane), FLOATS(out) + out_off, groups,
                 &g);
  return Val_unit;
}

value nas_conv_depthwise_input(value gout, intnat gout_off, value wt, value buf, value gin,
                               intnat gin_off, intnat groups, intnat cog, intnat h, intnat w,
                               intnat kh, intnat kw, intnat ho, intnat wo, intnat stride,
                               intnat pad, intnat dilation)
{
  struct geom g = { 1, cog, h, w, kh, kw, ho, wo, stride, pad, dilation };
  conv_depthwise_input(FLOATS(gout) + gout_off, FLOATS(wt), FLOATS(buf), FLOATS(gin) + gin_off,
                       groups, &g);
  return Val_unit;
}

value nas_conv_direct(value in, intnat in_off, value wt, intnat wt_off, value out,
                      intnat out_off, intnat cig, intnat cog, intnat h, intnat w, intnat kh,
                      intnat kw, intnat ho, intnat wo, intnat stride, intnat pad,
                      intnat dilation)
{
  struct geom g = { cig, cog, h, w, kh, kw, ho, wo, stride, pad, dilation };
  conv_direct(FLOATS(in) + in_off, FLOATS(wt) + wt_off, FLOATS(out) + out_off, &g);
  return Val_unit;
}

value nas_conv_backward_input_direct(value gout, intnat gout_off, value wt, intnat wt_off,
                                     value gin, intnat gin_off, intnat cig, intnat cog,
                                     intnat h, intnat w, intnat kh, intnat kw, intnat ho,
                                     intnat wo, intnat stride, intnat pad, intnat dilation)
{
  struct geom g = { cig, cog, h, w, kh, kw, ho, wo, stride, pad, dilation };
  conv_backward_direct(NULL, FLOATS(gout) + gout_off, FLOATS(wt) + wt_off,
                       FLOATS(gin) + gin_off, NULL, &g);
  return Val_unit;
}

value nas_conv_backward_direct(value in, value gin, intnat in_off, value gout,
                               intnat gout_off, value wt, value gwt, intnat wt_off,
                               intnat cig, intnat cog, intnat h, intnat w, intnat kh,
                               intnat kw, intnat ho, intnat wo, intnat stride, intnat pad,
                               intnat dilation)
{
  struct geom g = { cig, cog, h, w, kh, kw, ho, wo, stride, pad, dilation };
  conv_backward_direct(FLOATS(in) + in_off, FLOATS(gout) + gout_off, FLOATS(wt) + wt_off,
                       FLOATS(gin) + in_off, FLOATS(gwt) + wt_off, &g);
  return Val_unit;
}

/* Bytecode entry points: the same kernels, with the arguments in [argv]
   and every int tagged. */

#define I(k) Long_val(argv[k])

value nas_conv_im2col_byte(value *argv, int argn)
{
  (void) argn;
  return nas_conv_im2col(argv[0], I(1), argv[2], I(3), argv[4], argv[5], I(6), I(7), I(8),
                         I(9), I(10), I(11), I(12), I(13), I(14), I(15), I(16), I(17));
}

value nas_gather_weights_byte(value *argv, int argn)
{
  (void) argn;
  return nas_gather_weights(argv[0], argv[1], I(2), I(3), I(4), I(5), I(6), I(7), I(8));
}

value nas_conv_gather_byte(value *argv, int argn)
{
  (void) argn;
  return nas_conv_gather(argv[0], I(1), argv[2], I(3), argv[4], argv[5], argv[6], I(7), I(8),
                         I(9), I(10), I(11), I(12), I(13), I(14), I(15), I(16), I(17), I(18));
}

value nas_conv_depthwise_byte(value *argv, int argn)
{
  (void) argn;
  return nas_conv_depthwise(argv[0], I(1), argv[2], argv[3], argv[4], I(5), I(6), I(7), I(8),
                            I(9), I(10), I(11), I(12), I(13), I(14), I(15), I(16));
}

value nas_conv_depthwise_input_byte(value *argv, int argn)
{
  (void) argn;
  return nas_conv_depthwise_input(argv[0], I(1), argv[2], argv[3], argv[4], I(5), I(6), I(7),
                                  I(8), I(9), I(10), I(11), I(12), I(13), I(14), I(15), I(16));
}

value nas_conv_direct_byte(value *argv, int argn)
{
  (void) argn;
  return nas_conv_direct(argv[0], I(1), argv[2], I(3), argv[4], I(5), I(6), I(7), I(8),
                         I(9), I(10), I(11), I(12), I(13), I(14), I(15), I(16));
}

value nas_conv_backward_input_direct_byte(value *argv, int argn)
{
  (void) argn;
  return nas_conv_backward_input_direct(argv[0], I(1), argv[2], I(3), argv[4], I(5), I(6),
                                        I(7), I(8), I(9), I(10), I(11), I(12), I(13), I(14),
                                        I(15), I(16));
}

value nas_conv_backward_direct_byte(value *argv, int argn)
{
  (void) argn;
  return nas_conv_backward_direct(argv[0], argv[1], I(2), argv[3], I(4), argv[5], argv[6],
                                  I(7), I(8), I(9), I(10), I(11), I(12), I(13), I(14), I(15),
                                  I(16), I(17), I(18));
}
