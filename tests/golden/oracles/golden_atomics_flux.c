// generated by repro.op2 — native atomic chunks wrapper for golden_flux
#include <math.h>

static inline void golden_flux_f0(const double *x1, const double *x2, const double *w, double *r1, double *r2, double *rms) {
  double f = (w[0] * (x1[0] - x2[0]));
  #pragma omp atomic
  r1[0] += f;
  #pragma omp atomic
  r2[0] -= f;
  rms[0] += (f * f);
}

void op_native_atomics_golden_flux(
    const double *a0_f0,
    const long long *m0_f0,
    const double *a1_f0,
    const long long *m1_f0,
    const double *a2_f0,
    double *a3_f0,
    const long long *m3_f0,
    double *a4_f0,
    const long long *m4_f0,
    double *g5_f0,
    long long _start,
    long long _end,
    long long _nthreads,
    long long _block) {
  (void)_nthreads;
  (void)_start;
  (void)_end;
  #pragma omp parallel num_threads((int)_nthreads)
  {
    // -- section 0: golden_flux
    double rms_l_f0[1];
    for (int d = 0; d < 1; d++) rms_l_f0[d] = 0.0;
    for (long long _lo = _start; _lo < _end; _lo += _block) {
      long long _hi = _lo + _block < _end ? _lo + _block : _end;
      #pragma omp for schedule(static)
      for (long long n = _lo; n < _hi; n++) {
        golden_flux_f0(a0_f0 + m0_f0[n * 2 + 0] * 2, a1_f0 + m1_f0[n * 2 + 1] * 2, a2_f0 + n * 1, a3_f0 + m3_f0[n * 2 + 0] * 1, a4_f0 + m4_f0[n * 2 + 1] * 1, rms_l_f0);
      }
    }
    #pragma omp critical
    {
      for (int d = 0; d < 1; d++) g5_f0[d] += rms_l_f0[d];
    }
  }
}
