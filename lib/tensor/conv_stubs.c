/* Exact convolution kernels for Ops (ops.ml).

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
   one (image, group), so another domain waiting for a stop-the-world
   collection never waits for a whole layer. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>

#define FLOATS(v) ((double *) (v))

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

value nas_dot_rows(value a, intnat a_off, value b, intnat len, intnat rows, intnat cols,
                   value out, intnat out_off, intnat out_stride)
{
  dot_rows(FLOATS(a) + a_off, FLOATS(b), len, rows, cols, FLOATS(out) + out_off, out_stride);
  return Val_unit;
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

value nas_dot_rows_byte(value *argv, int argn)
{
  (void) argn;
  return nas_dot_rows(argv[0], I(1), argv[2], I(3), I(4), I(5), argv[6], I(7), I(8));
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
