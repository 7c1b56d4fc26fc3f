"""Flow files of the benchmark's own dashboards.

``ipl_batch`` runs the paper's Appendix A flow-file group from
``repro.workloads`` unchanged; the two flows here are the benchmark's
mirror images of it — cheap ingest with heavy relational work
(``ACTIVITY_FLOW``) and a join-free chain the incremental engine can
maintain (``FEED_FLOW``).  Every ordered endpoint ends in a sort whose
last key is unique, so the row order is fixed by the data alone and a
plain-Python oracle can check pages byte for byte at any parallelism.
"""

ACTIVITY_FLOW = """
# Commit activity: commits JOIN authors -> filter -> 3-key group-by -> sort
D:
    commits: [commit_id, author_id, repo, day, files, lines]
    authors: [author_id, team, region, level]
    enriched: [commit_id, author_id, repo, day, files, lines, team,
        region, level]
    team_daily: [team, region, day, commits, lines]
    repo_totals: [repo, commits, lines, files]

D.commits:
    source: commits.csv
D.authors:
    source: authors.csv

F:
    D.enriched: (D.commits, D.authors) | T.join_author | T.real_changes
        | T.by_commit
    D.team_daily: D.enriched | T.per_team_region_day | T.by_team_day
    D.repo_totals: D.enriched | T.per_repo | T.by_lines
    D.enriched:
        endpoint: true
    D.team_daily:
        endpoint: true
    D.repo_totals:
        endpoint: true

T:
    join_author:
        type: join
        left: commits by author_id
        right: authors by author_id
        join_condition: inner
    real_changes:
        type: filter_by
        filter_expression: lines > 0
    by_commit:
        type: sort
        orderby_column: [commit_id ASC]
    per_team_region_day:
        type: groupby
        groupby: [team, region, day]
        aggregates:
            - operator: count
              out_field: commits
            - operator: sum
              apply_on: lines
              out_field: lines
    by_team_day:
        type: sort
        orderby_column: [team ASC, region ASC, day ASC]
    per_repo:
        type: groupby
        groupby: [repo]
        aggregates:
            - operator: count
              out_field: commits
            - operator: sum
              apply_on: lines
              out_field: lines
            - operator: sum
              apply_on: files
              out_field: files
    by_lines:
        type: sort
        orderby_column: [lines DESC, repo ASC]
    in_days:
        type: filter_by
        filter_by: [day]
        filter_source: W.day_slider
    lines_per_team:
        type: groupby
        groupby: [team]
        aggregates:
            - operator: sum
              apply_on: lines
              out_field: lines

W:
    day_slider:
        type: Slider
        source: ['2014-01-01', '2014-04-30']
        static: true
        range: true
        slider_type: date
    team_bubble:
        type: BubbleChart
        source: D.team_daily | T.in_days | T.lines_per_team
        text: team
        size: lines
    daily_grid:
        type: DataGrid
        source: D.team_daily | T.in_days
        page_size: 25

L:
    description: Commit activity
    rows:
    - [span12: W.day_slider]
    - [span5: W.team_bubble, span7: W.daily_grid]
"""


FEED_FLOW = """
# Ball-by-ball feed: join-free filter -> group-by -> top-n, so refresh
# takes the incremental path, never the full-recompute fallback.
D:
    balls: [ball_id, day, team, batsman, over, runs]
    batsman_runs: [team, batsman, balls, runs]
    top_batsmen: [team, batsman, balls, runs]
    team_daily: [team, day, balls, runs]

D.balls:
    source: balls.jsonl
    format: jsonl

F:
    D.batsman_runs: D.balls | T.scoring | T.per_batsman
    D.top_batsmen: D.balls | T.scoring | T.per_batsman | T.top_scorers
    D.team_daily: D.balls | T.scoring | T.per_team_day
    D.batsman_runs:
        endpoint: true
    D.top_batsmen:
        endpoint: true
    D.team_daily:
        endpoint: true

T:
    scoring:
        type: filter_by
        filter_expression: runs > 0
    per_batsman:
        type: groupby
        groupby: [team, batsman]
        aggregates:
            - operator: count
              out_field: balls
            - operator: sum
              apply_on: runs
              out_field: runs
    top_scorers:
        type: topn
        orderby_column: [runs DESC, batsman ASC]
        limit: 10
    per_team_day:
        type: groupby
        groupby: [team, day]
        aggregates:
            - operator: count
              out_field: balls
            - operator: sum
              apply_on: runs
              out_field: runs
    in_days:
        type: filter_by
        filter_by: [day]
        filter_source: W.day_slider
    runs_per_team:
        type: groupby
        groupby: [team]
        aggregates:
            - operator: sum
              apply_on: runs
              out_field: runs

W:
    day_slider:
        type: Slider
        source: ['2013-01-01', '2013-03-01']
        static: true
        range: true
        slider_type: date
    team_bubble:
        type: BubbleChart
        source: D.team_daily | T.in_days | T.runs_per_team
        text: team
        size: runs
    daily_grid:
        type: DataGrid
        source: D.team_daily | T.in_days
        page_size: 25

L:
    description: Ball-by-ball feed
    rows:
    - [span12: W.day_slider]
    - [span5: W.team_bubble, span7: W.daily_grid]
"""
