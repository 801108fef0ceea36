"""PySpark dataflow layer.

The paper's contribution is a search algorithm, not a planner rule, so
(per DESIGN.md's layering note) it is expressed here as
``DataFrame -> DataFrame`` transformations:

- ``cellify``: the reduced-rectangle -> candidate-cell explosion (the
  geo-partitioning of the scan);
- ``summaries``: the grid index's attribute summary tables: one metadata
  ``agg`` job, then one ``mapInPandas`` pass that runs the core
  channelisation and returns per-cell totals, suffix-summed in NumPy on
  the driver;
- ``search``: the distributed GI-DS scan — candidate index cells are
  pruned with driver-side lower bounds, then hash-partitioned over every
  core; each ``mapInPandas`` task runs the driver GI-DS's one best-first
  ``ds_search(roots=...)`` over its cells, seeded with the driver's
  incumbent. Each task measures the GPS accuracy (the edge gap) over its
  own cells' objects; that gap is never below the global one, so the
  answer stays exact.
"""
