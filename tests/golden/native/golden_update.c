// generated by repro.op2 — native block-color plan wrapper for golden_update
#include <math.h>

static inline double op2_max(double a, double b) { double m = a > b ? a : b; return a != a ? a : m; }

static inline void golden_update_f0(double *q, const double *qold, const double *res, const double *adt, const double *g, double *change) {
  double adti = (1.0 / adt[0]);
  for (int i = 0; i < 4; i++) {
    double d = (adti * res[i]);
    q[i] = (qold[i] - (d * g[0]));
    change[0] = op2_max(change[0], fabs(d));
  }
}

void op_native_golden_update(
    double *a0_f0,
    const double *a1_f0,
    const double *a2_f0,
    const double *a3_f0,
    const double *g4_f0,
    double *g5_f0,
    long long _start,
    long long _end,
    long long _nthreads) {
  (void)_nthreads;
  (void)_start;
  (void)_end;
  #pragma omp parallel num_threads((int)_nthreads)
  {
    // -- section 0: golden_update
    double change_l_f0[1];
    for (int d = 0; d < 1; d++) change_l_f0[d] = -INFINITY;
    #pragma omp for schedule(static)
    for (long long n = _start; n < _end; n++) {
      golden_update_f0(a0_f0 + n * 4, a1_f0 + n * 4, a2_f0 + n * 4, a3_f0 + n * 1, g4_f0, change_l_f0);
    }
    #pragma omp critical
    {
      for (int d = 0; d < 1; d++) g5_f0[d] = op2_max(g5_f0[d], change_l_f0[d]);
    }
  }
}
