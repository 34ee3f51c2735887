#include "corpus/generator.h"

#include "corpus/mailing_list.h"

#include "util/strings.h"

namespace pkb::corpus {

namespace {

void append_para(std::string& md, std::string_view text) {
  md.append(text);
  md += "\n\n";
}

std::string faq_markdown() {
  std::string md = "# PETSc Frequently Asked Questions\n\n";
  append_para(md,
              "## Why is my iterative solver not converging?\n\n"
              "First run with -ksp_converged_reason to learn which criterion "
              "fired. DIVERGED_ITS means the iteration cap was reached: the "
              "preconditioner is too weak, the tolerances too tight, or the "
              "problem genuinely hard — try a stronger preconditioner "
              "(-pc_type gamg or a direct solve -ksp_type preonly -pc_type "
              "lu as a sanity check). DIVERGED_DTOL means blow-up, often an "
              "indefinite matrix handed to a method that requires positive "
              "definiteness (use KSPMINRES instead of KSPCG), or a wrong "
              "matrix assembly. DIVERGED_PC_FAILED points at the "
              "preconditioner itself, commonly a zero pivot in ILU — try "
              "-pc_factor_shift_type nonzero.");
  append_para(md,
              "## Why is assembling my matrix so slow?\n\n"
              "Almost always insufficient preallocation. Every time "
              "MatSetValues outgrows the preallocated nonzeros, PETSc "
              "reallocates and copies the whole storage. Run with -info and "
              "grep for 'malloc' to see how many such reallocations occurred "
              "during assembly; the goal is zero mallocs. Fix the "
              "preallocation with MatXAIJSetPreallocation or assemble via "
              "MatPreallocator.");
  append_para(md,
              "## What solver and preconditioner does PETSc use if I choose "
              "nothing?\n\n"
              "The default Krylov method is restarted GMRES with restart "
              "length 30. The default preconditioner is ILU(0) when running "
              "on one process, and block Jacobi with ILU(0) on each "
              "process's block in parallel. Confirm what your run actually "
              "used with -ksp_view.");
  append_para(md,
              "## How do I choose between GMRES and BiCGStab?\n\n"
              "Restarted GMRES (the default, restart 30) is the most robust "
              "general-purpose nonsymmetric method but its memory grows with "
              "the restart length. BiCGStab (-ksp_type bcgs) uses constant "
              "memory and often converges comparably, at the price of a more "
              "erratic residual history and possible breakdowns; KSPBCGSL "
              "adds robustness. When the preconditioned residual behaves "
              "erratically, KSPTFQMR offers smoother convergence.");
  append_para(md,
              "## My matrix is symmetric positive definite. What should I "
              "use?\n\n"
              "Use -ksp_type cg with a symmetric preconditioner: -pc_type "
              "icc sequentially, -pc_type gamg or -pc_type hypre for large "
              "problems. Do not use the default GMRES/ILU — CG is cheaper "
              "per iteration (short recurrences) and exploits symmetry.");
  append_para(md,
              "## How can I check which options my program actually "
              "used?\n\n"
              "-ksp_view prints the exact solver configuration; "
              "-options_left reports options that were set but never "
              "consumed, catching typos like -ksp_tpye; -help lists the "
              "options each object understands as it is created.");
  append_para(md,
              "## Can PETSc solve singular systems?\n\n"
              "Yes, if the system is consistent: attach the null space with "
              "MatSetNullSpace (MatNullSpaceCreate with has_cnst for the "
              "constant null space of pure Neumann problems). Krylov "
              "methods then project the null space out each iteration. "
              "Direct factorizations still fail on singular matrices.");
  return md;
}

std::string tutorial_markdown() {
  std::string md = "# KSP Tutorial: Solving Your First Linear System\n\n";
  append_para(md,
              "This tutorial walks through the canonical PETSc linear solve. "
              "The KSP object couples a Krylov method with a preconditioner "
              "and is configured at runtime from the options database.");
  md +=
      "```c\n"
      "#include <petscksp.h>\n"
      "int main(int argc, char **argv)\n"
      "{\n"
      "  Mat A; Vec x, b; KSP ksp;\n"
      "  PetscCall(PetscInitialize(&argc, &argv, NULL, NULL));\n"
      "  /* ... create and assemble A and b ... */\n"
      "  PetscCall(KSPCreate(PETSC_COMM_WORLD, &ksp));\n"
      "  PetscCall(KSPSetOperators(ksp, A, A));\n"
      "  PetscCall(KSPSetFromOptions(ksp));\n"
      "  PetscCall(KSPSolve(ksp, b, x));\n"
      "  PetscCall(KSPDestroy(&ksp));\n"
      "  PetscCall(PetscFinalize());\n"
      "  return 0;\n"
      "}\n"
      "```\n\n";
  append_para(md,
              "Run it with different solvers without recompiling:\n\n"
              "- `./tutorial -ksp_type cg -pc_type icc` for SPD systems\n"
              "- `./tutorial -ksp_type gmres -ksp_gmres_restart 60 -pc_type "
              "asm` for nonsymmetric systems\n"
              "- `./tutorial -ksp_type preonly -pc_type lu` for a direct "
              "solve\n"
              "- add `-ksp_monitor -ksp_converged_reason -ksp_view` to see "
              "what happens");
  append_para(md,
              "Diagnosing convergence: -ksp_monitor prints the "
              "preconditioned residual norm each iteration; "
              "-ksp_monitor_true_residual also prints the true residual, "
              "which is what you actually care about under left "
              "preconditioning. After the solve, -ksp_converged_reason "
              "tells you which stopping criterion fired, and "
              "KSPGetIterationNumber returns the iteration count in code.");
  return md;
}

std::string pc_chapter_markdown() {
  std::string md = "# Preconditioners (PC)\n\n";
  append_para(md,
              "The preconditioner is the decisive ingredient of an "
              "iterative solve: the Krylov method merely extracts the best "
              "answer from the subspace the preconditioned operator "
              "generates. PETSc preconditioners are runtime-composable "
              "objects selected with -pc_type.");
  append_para(md,
              "## Default preconditioners\n\n"
              "On a single process the default preconditioner is ILU(0); in "
              "parallel it is block Jacobi with ILU(0) applied on each "
              "process's diagonal block, paired with the default Krylov "
              "method, restarted GMRES(30). These defaults favor robustness "
              "over speed for easy problems; for large or hard problems "
              "switch to multigrid (-pc_type gamg) or domain decomposition "
              "with overlap (-pc_type asm).");
  append_para(md,
              "## Composing solvers\n\n"
              "Inner solvers are configured through option prefixes: each "
              "block of PCBJACOBI or PCASM is a full KSP reachable with "
              "-sub_ksp_type/-sub_pc_type; each multigrid level smoother "
              "uses -mg_levels_*; each field of PCFIELDSPLIT uses "
              "-fieldsplit_<name>_*. This composition is how complex "
              "physics-based preconditioners are assembled without code.");
  append_para(md,
              "## Symmetry considerations\n\n"
              "KSPCG requires a symmetric positive definite preconditioner: "
              "PCJACOBI, PCICC, symmetric PCSOR (-pc_sor_symmetric), or "
              "multigrid with symmetric smoothers qualify; ILU does not in "
              "general. For symmetric indefinite systems pair KSPMINRES "
              "with an SPD preconditioner such as a block-diagonal "
              "approximation.");
  return md;
}

std::string profiling_chapter_markdown() {
  std::string md = "# Profiling and Performance Diagnostics\n\n";
  append_para(md,
              "PETSc has built-in instrumentation for time, flops, memory, "
              "and MPI traffic. The single most useful tool is -log_view, "
              "printed at PetscFinalize: a table of every registered event "
              "(MatMult, PCApply, KSPSolve, VecNorm, ...) with counts, "
              "times, flop rates, and message volumes, broken down by "
              "stage.");
  append_para(md,
              "When reporting performance problems to the PETSc team, "
              "always attach the full -log_view output of an optimized "
              "(--with-debugging=0) build. Debug builds can be an order of "
              "magnitude slower and their profiles are not meaningful.");
  append_para(md,
              "The -info option prints internal diagnostics from every "
              "object — matrix preallocation success, communication "
              "pattern setup, convergence internals. Filter by class "
              "(-info :mat) or pipe through grep. For iteration-level "
              "solver behavior use -ksp_monitor and friends rather than "
              "-info.");
  append_para(md,
              "Common performance pitfalls: insufficient matrix "
              "preallocation (check with -info | grep malloc — the malloc "
              "count during MatSetValues should be zero); tolerances far "
              "tighter than the discretization error; monitors like "
              "-ksp_monitor_true_residual left enabled in production runs "
              "(they add a matrix-vector product per iteration); and "
              "oversubscribed nodes hiding in MPI wait time.");
  return md;
}

}  // namespace

std::string render_manual_page(const ApiSpec& spec) {
  std::string md;
  md += "# " + spec.name + "\n\n";
  append_para(md, spec.summary);
  if (!spec.synopsis.empty()) {
    md += "## Synopsis\n\n```c\n" + spec.synopsis + "\n```\n\n";
  }
  if (!spec.options.empty()) {
    md += "## Options Database Keys\n\n";
    for (const std::string& opt : spec.options) {
      md += "- `" + opt + "`\n";
    }
    md += "\n";
  }
  if (!spec.notes.empty()) {
    md += "## Notes\n\n";
    for (const std::string& note : spec.notes) append_para(md, note);
  }
  md += "## Level\n\n";
  append_para(md, to_string(spec.level));
  if (!spec.see_also.empty()) {
    md += "## See Also\n\n";
    std::vector<std::string> links;
    links.reserve(spec.see_also.size());
    for (const std::string& ref : spec.see_also) {
      links.push_back("`" + ref + "`");
    }
    append_para(md, pkb::util::join(links, ", "));
  }
  return md;
}

std::string render_ksp_chapter() {
  std::string md = "# KSP: Linear System Solvers\n\n";
  append_para(md,
              "The KSP component provides a unified, runtime-composable "
              "interface to Krylov subspace iterative methods and, through "
              "KSPPREONLY with factorization preconditioners, to direct "
              "solvers. A KSP object combines the Krylov method (KSPType), "
              "the preconditioner (PC), the convergence test, and "
              "monitoring.");
  append_para(md,
              "## Choosing a method\n\n"
              "Most applications should call KSPSetFromOptions and select "
              "the method at runtime with -ksp_type. For square "
              "nonsymmetric matrices the default GMRES(30) is a robust "
              "starting point; BiCGStab (-ksp_type bcgs) trades robustness "
              "for constant memory. For symmetric positive definite "
              "matrices use CG (-ksp_type cg); for symmetric indefinite "
              "matrices use MINRES. When the preconditioner varies between "
              "iterations — an inner iterative solve, an adaptive multigrid "
              "cycle — a flexible method is mandatory: FGMRES (-ksp_type "
              "fgmres) or GCR.");
  append_para(md,
              "## Square and rectangular systems\n\n"
              "The standard Krylov methods assume a square, nonsingular "
              "operator. KSP can also be used to solve least squares "
              "problems, using, for example, KSPLSQR, which applies the "
              "LSQR bidiagonalization algorithm to rectangular "
              "(overdetermined or underdetermined) systems and to square "
              "systems that are singular or rank deficient, converging to "
              "the minimum-norm least squares solution. The matrix need "
              "not be invertible; what matters is consistency of the "
              "system, or acceptance of a least squares residual.");
  append_para(md,
              "For singular but consistent square systems (for example the "
              "pure Neumann pressure Poisson problem, whose null space is "
              "the constant vector), attach the null space with "
              "MatSetNullSpace; the Krylov iteration then projects it out "
              "at every step and converges to the solution orthogonal to "
              "the null space.");
  append_para(md,
              "## Convergence testing\n\n"
              "The default test stops when the residual norm falls below "
              "max(rtol*||b||, abstol), with rtol = 1e-5, abstol = 1e-50, "
              "and declares divergence beyond dtol = 1e5 times the initial "
              "residual or after maxits = 10000 iterations "
              "(KSPSetTolerances / -ksp_rtol -ksp_atol -ksp_divtol "
              "-ksp_max_it). Replace the rule entirely with "
              "KSPSetConvergenceTest. Which norm is tested depends on the "
              "preconditioning side: left preconditioning monitors the "
              "preconditioned residual norm, right preconditioning the "
              "true residual norm (KSPSetPCSide, KSPSetNormType).");
  append_para(md,
              "## Monitoring and diagnosis\n\n"
              "-ksp_monitor prints the tracked residual norm per "
              "iteration; -ksp_monitor_true_residual additionally computes "
              "and prints the true residual ||b - Ax||. After the solve, "
              "-ksp_converged_reason reports which criterion fired, and "
              "-ksp_view prints the complete solver configuration, "
              "including every nested sub-solver. KSPGetConvergedReason, "
              "KSPGetIterationNumber, and KSPGetResidualNorm expose the "
              "same data programmatically.");
  append_para(md,
              "## Initial guesses and repeated solves\n\n"
              "KSPSolve starts from a zero initial guess by default; call "
              "KSPSetInitialGuessNonzero (or -ksp_initial_guess_nonzero) "
              "to start from the incoming solution vector — standard "
              "practice in time-stepping. Repeated solves with the same "
              "matrix reuse the preconditioner automatically; when the "
              "matrix changes but slowly, KSPSetReusePreconditioner skips "
              "the rebuild at the cost of extra iterations. Many "
              "right-hand sides at once are best handled by KSPMatSolve, "
              "which solves A X = B column-block-wise and amortizes setup.");
  return md;
}

std::string render_mat_chapter() {
  std::string md = "# Mat: Matrices\n\n";
  append_para(md,
              "PETSc matrices (Mat) support many storage formats — the "
              "default MATAIJ compressed sparse row format, blocked "
              "MATBAIJ, symmetric MATSBAIJ, dense, and matrix-free "
              "MATSHELL. All formats share the assembly interface: "
              "MatSetValues to insert logically dense blocks, then "
              "MatAssemblyBegin/MatAssemblyEnd to finalize.");
  append_para(md,
              "## Preallocation\n\n"
              "For AIJ-family formats, performance of assembly depends "
              "critically on preallocating the nonzero storage. If "
              "insertions exceed the preallocation, PETSc must allocate a "
              "larger array and copy — potentially at every row — which "
              "can make assembly hundreds of times slower. Preallocate "
              "with MatXAIJSetPreallocation (or the format-specific "
              "routines), or let MatPreallocator compute the pattern in a "
              "dry run.");
  append_para(md,
              "As described above, the option -info will print information "
              "about the success of preallocation during matrix assembly: "
              "look for lines like 'MatAssemblyEnd_SeqAIJ(): Number of "
              "mallocs during MatSetValues() is 0'; a nonzero malloc count "
              "means the preallocation was insufficient and assembly paid "
              "for reallocation copies. There is no dedicated option for "
              "preallocation reporting — -info is the mechanism.");
  append_para(md,
              "## Assembly and communication\n\n"
              "Values may be set on any process; assembly migrates them to "
              "their owners. Between INSERT_VALUES and ADD_VALUES phases an "
              "intermediate MAT_FLUSH_ASSEMBLY is required. The "
              "begin/end split exists so applications can overlap "
              "computation with the assembly communication.");
  append_para(md,
              "## Matrix-free operators\n\n"
              "MATSHELL wraps user callbacks as a matrix; Krylov methods "
              "need only MatMult, so shell matrices plug directly into "
              "KSP. Most preconditioners, however, need matrix entries — "
              "supply an assembled Pmat to KSPSetOperators or use "
              "entry-free preconditioning (PCNONE, PCSHELL, user "
              "multigrid).");
  return md;
}

text::VirtualDir generate_corpus(const CorpusOptions& opts) {
  text::VirtualDir tree;
  for (const ApiSpec& spec : api_table()) {
    tree.push_back(
        text::VirtualFile{manual_page_path(spec), render_manual_page(spec)});
  }
  tree.push_back(text::VirtualFile{"docs/manual/ksp.md", render_ksp_chapter()});
  tree.push_back(text::VirtualFile{"docs/manual/pc.md", pc_chapter_markdown()});
  tree.push_back(text::VirtualFile{"docs/manual/mat.md", render_mat_chapter()});
  tree.push_back(text::VirtualFile{"docs/manual/profiling.md",
                                   profiling_chapter_markdown()});
  if (opts.include_faq) {
    tree.push_back(text::VirtualFile{"docs/faq.md", faq_markdown()});
  }
  if (opts.include_tutorial) {
    tree.push_back(
        text::VirtualFile{"docs/tutorials/ksp_tutorial.md", tutorial_markdown()});
  }
  if (opts.include_mailing_list_archive) {
    ArchiveOptions archive_opts;
    archive_opts.threads = opts.archive_threads;
    for (auto& file : generate_mailing_list_archive(archive_opts)) {
      tree.push_back(std::move(file));
    }
  }
  return tree;
}

}  // namespace pkb::corpus
