from hypothesis import settings

# Every property test draws its examples from a fixed seed, keeps no example
# database between runs and has no per-example deadline, so a run of the suite
# gives the same result on any machine. Tests set only how many examples to
# draw and which phases to run.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
